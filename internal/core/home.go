package core

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/token"
)

// homeLookup dispatches a delivered home-side message once the
// directory lookup latency (Base.Defer) elapsed. Queued requests are
// copied by value, so the pooled message is recycled the moment the
// lookup completes.
func (n *Node) homeLookup(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM:
		n.homeReceive(now, m)
	default:
		n.homeTokens(now, m)
	}
}

// homeReceive accepts indirect requests at the home (after the lookup
// delay), applying the per-block blocking discipline PATCH inherits
// from DIRECTORY (one active request per block; arrival order at the
// home decides the service order of races).
func (n *Node) homeReceive(now event.Time, m *msg.Message) {
	e := n.dir.Entry(m.Addr)
	if e.Busy {
		e.Queue = append(e.Queue, directory.Pending{
			Req: m.Requester, IsWrite: m.IsWrite, Transient: m.Detached(),
		})
		return
	}
	n.homeActivate(now, e, m)
}

// homeTokens receives tokens flowing back to the home: writebacks and
// token-tenure discards. While a request is active the home redirects
// every arriving token to the active requester (Rule #5); otherwise the
// tokens are absorbed into memory, with the owner token set clean on
// arrival (Rule #1).
func (n *Node) homeTokens(now event.Time, m *msg.Message) {
	e := n.dir.Entry(m.Addr)
	if m.Type != msg.TokenReturn {
		// A full eviction: the evictor keeps nothing.
		if n.dir.Enc.Coarseness == 1 {
			e.Sharers.Remove(m.Src)
		}
		if e.Owner == m.Src {
			e.Owner = directory.HomeOwner
		}
	}
	if e.Busy {
		n.redirect(e, m)
		return
	}
	e.Tok.Add(m.Tokens, m.Owner, false, m.Owner) // memory data valid once the owner returns
	if m.HasData && m.Version > e.MemVersion {
		e.MemVersion = m.Version
	}
	if m.Owner {
		e.DataAtMemory = true
	}
}

// redirect funnels arriving tokens to the active requester. A clean
// owner token is joined with data fetched from memory (the requester
// needs the block; a dirty owner already travels with data by Rule #4).
func (n *Node) redirect(e *directory.Entry, m *msg.Message) {
	out := n.Msg(msg.Message{
		Type: msg.Redirect, Addr: e.Addr, Dst: e.Active, Requester: e.Active,
		Activated: true, Seq: e.ActiveSeq,
	})
	withData := m.HasData
	out.Version = m.Version
	delay := event.Time(0)
	if m.Owner && !m.HasData {
		withData = true // clean owner: supply the memory copy
		out.Version = e.MemVersion
		delay = event.Time(n.dir.DRAMLatency)
	}
	token.Attach(out, m.Tokens, m.Owner, m.OwnerDirty, withData)
	if delay > 0 {
		n.SendAfter(delay, out)
	} else {
		n.Send(out)
	}
}

// Deactivation-time directory commits (see directory.Entry.Commit).
const (
	// commitWrite installs the writer as owner with no sharers; the
	// memory copy goes stale.
	commitWrite uint8 = iota + 1
	// commitRead installs the reader as owner, keeping the previous
	// owner (Prev) in the sharer superset (Rule #1b).
	commitRead
)

// homeActivate designates the request as the block's active request
// (Rule #1a) and forwards it to a superset of the caches holding tenured
// tokens (Rule #1b): the exact owner plus the (possibly inexact) sharer
// set. Every forwarded message carries the activation bit, which
// responders echo to the requester; if no message of the activation
// could possibly echo it (no home tokens, no forward target), the home
// notifies the requester explicitly — this is the paper's small
// "activation" traffic (e.g. upgrade misses by the current owner).
func (n *Node) homeActivate(now event.Time, e *directory.Entry, m *msg.Message) {
	e.Busy = true
	e.Active = m.Requester
	e.ActiveSeq = m.Seq
	e.ActiveWrite = m.IsWrite
	r := m.Requester

	// Migratory-sharing detection: a write by the most recent reader is
	// the hand-off pattern; a write by anyone else is write sharing and
	// clears the mark, as do two consecutive reads by different cores.
	migratory := false
	if m.IsWrite {
		e.Migratory = e.MigrArmed && e.LastReader == r
		e.MigrArmed = false
	} else {
		// Unlike DIRECTORY, the conversion needs no sharer check: if the
		// owner lacks the full token count it degrades to a plain
		// ownership transfer, with token counting keeping everyone safe.
		migratory = e.Migratory && e.Owner != directory.HomeOwner && e.Owner != r
		if migratory {
			n.St.MigratoryUpgrades++
			e.MigrAttempted = true
		} else if e.MigrArmed && e.LastReader != r {
			e.Migratory = false
		}
		e.LastReader = r
		e.MigrArmed = true
	}

	// Directory update committed at deactivation. Reads (including
	// migratory conversions) keep the previous owner in the sharer set:
	// it may retain tenured tokens, and the set must stay a superset of
	// tenured holders (Rule #1b).
	if m.IsWrite {
		e.Commit = directory.Commit{Kind: commitWrite, Req: r}
	} else {
		e.Commit = directory.Commit{Kind: commitRead, Req: r, Prev: e.Owner}
	}

	actCarrier := false

	// Home-held tokens flow to the requester (Rule #1a).
	//
	// Writes take everything. Reads take everything only when no cache
	// holds a copy (the E-grant DIRECTORY uses to avoid upgrade misses on
	// unshared data); for actively shared blocks the home hands out the
	// owner token (with data) plus one spare token, keeping the rest
	// pooled. The spare keeps the previous owner of a read chain in S
	// when ownership later migrates — matching DIRECTORY, where old
	// owners retain shared copies.
	if !e.Tok.Zero() {
		if e.Tok.Owner {
			grant := n.Msg(msg.Message{Type: msg.Data, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq, Version: e.MemVersion})
			if m.IsWrite || (e.Sharers.Count() == 0 && e.Owner == directory.HomeOwner) {
				tokens, owner, _ := e.Tok.TakeAll()
				token.Attach(grant, tokens, owner, false, true)
			} else {
				spare := e.Tok.TakeNonOwner(1)
				e.Tok.TakeOwner() // the home's owner token is always clean
				token.Attach(grant, 1+spare, true, false, true)
			}
			n.SendAfter(event.Time(n.dir.DRAMLatency), grant)
			actCarrier = true
		} else if m.IsWrite {
			tokens, _, _ := e.Tok.TakeAll()
			grant := n.Msg(msg.Message{Type: msg.Ack, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq})
			token.Attach(grant, tokens, false, false, false)
			n.Send(grant)
			actCarrier = true
		} else if e.Tok.Count > 0 {
			// Read of a block owned elsewhere: hand out one pooled spare
			// so the requester can later pass ownership on without
			// dropping to I.
			spare := e.Tok.TakeNonOwner(1)
			if spare > 0 {
				grant := n.Msg(msg.Message{Type: msg.Ack, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq})
				token.Attach(grant, spare, false, false, false)
				n.Send(grant)
				actCarrier = true
			}
		}
	}

	// Forward to the owner (always answered, so it carries the bit).
	if e.Owner != directory.HomeOwner && e.Owner != r {
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: e.Owner, Requester: r,
			ToOwner: true, IsWrite: m.IsWrite, Migratory: migratory, Activated: true, Seq: e.ActiveSeq,
		}))
		actCarrier = true
	}

	// Invalidation-style forwards to the sharer superset (writes only).
	// Only token holders answer: ack elision (§7).
	if m.IsWrite {
		if targets := n.invalidationTargets(e, r); len(targets) > 0 {
			n.Multicast(n.Msg(msg.Message{
				Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true, Activated: true, Seq: e.ActiveSeq,
			}), targets)
		}
	}

	if !actCarrier {
		n.Send(n.Msg(msg.Message{Type: msg.Activation, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq}))
	}
}

// invalidationTargets expands the sharer encoding into the node's
// scratch buffer, excluding requester and owner. The result is consumed
// (by Multicast) before the buffer's next use.
func (n *Node) invalidationTargets(e *directory.Entry, r msg.NodeID) []msg.NodeID {
	members := e.Sharers.AppendMembers(n.Scratch[:0], r)
	n.Scratch = members[:0] // retain any growth for the next expansion
	out := members[:0]
	for _, s := range members {
		if s != e.Owner {
			out = append(out, s)
		}
	}
	return out
}

// homeDeactivate commits the active transaction and services the queue.
func (n *Node) homeDeactivate(now event.Time, m *msg.Message) {
	e := n.dir.Entry(m.Addr)
	if !e.Busy || e.Active != m.Requester || e.ActiveSeq != m.Seq {
		panic(fmt.Sprintf("core: home %d: spurious deactivate %v", n.ID, m))
	}
	switch c := e.Commit; c.Kind {
	case commitWrite:
		e.Owner = c.Req
		e.Sharers.Clear()
		e.DataAtMemory = false
	case commitRead:
		if c.Prev != directory.HomeOwner && c.Prev != c.Req {
			e.Sharers.Add(c.Prev)
		}
		e.Owner = c.Req
		if n.dir.Enc.Coarseness == 1 {
			e.Sharers.Remove(c.Req)
		}
	}
	e.Commit = directory.Commit{}
	if e.MigrAttempted {
		if !m.Migratory {
			e.Migratory = false // the owner had not written: not migrating
		}
		e.MigrAttempted = false
	}
	e.Busy = false
	if len(e.Queue) > 0 {
		p := e.PopQueue()
		n.homeActivate(now, e, &p.Transient)
	}
}
