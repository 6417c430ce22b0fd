package directoryproto

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
)

// homeReceive accepts requests and writebacks at the home node after
// the directory lookup latency (Base.Defer), applying the per-block
// blocking discipline. Requests that must wait in an entry queue are
// copied by value, so the pooled message is recycled the moment the
// lookup completes.
func (n *Node) homeReceive(now event.Time, m *msg.Message) {
	e := n.dir.Entry(m.Addr)
	switch m.Type {
	case msg.PutM, msg.PutClean:
		if e.Busy {
			if e.AwaitingWB && m.Src == e.Active {
				// The writeback the active transaction is stalled on:
				// drain it, then re-service the recorded request.
				n.homeWriteback(e, m)
				e.AwaitingWB = false
				n.homeService(now, e, e.ResumeReq, e.ResumeType)
				return
			}
			e.Queue = append(e.Queue, directory.Pending{Req: m.Src, Transient: m.Detached()})
			return
		}
		n.homeWriteback(e, m)
	default:
		if e.Busy {
			e.Queue = append(e.Queue, directory.Pending{
				Req: m.Requester, IsWrite: m.IsWrite, Upgrade: m.Type == msg.Upg, Transient: m.Detached(),
			})
			return
		}
		n.homeActivate(now, e, m)
	}
}

// homeWriteback retires a writeback: if the writer is still the owner the
// block returns to memory; otherwise ownership already moved on and the
// writeback is stale.
func (n *Node) homeWriteback(e *directory.Entry, m *msg.Message) {
	stale := e.Owner != m.Src
	if !stale {
		e.Owner = directory.HomeOwner
		e.DataAtMemory = true
		if m.HasData && m.Version > e.MemVersion {
			e.MemVersion = m.Version
		}
		if fm := n.dir.Enc.Coarseness == 1; fm {
			e.Sharers.Remove(m.Src)
		}
	}
	n.Send(n.Msg(msg.Message{Type: msg.PutAck, Addr: m.Addr, Dst: m.Src, Requester: m.Src, Stale: stale}))
}

// homeActivate begins servicing one request: the block becomes busy and
// stays busy until the requester's deactivation commits the new state.
func (n *Node) homeActivate(now event.Time, e *directory.Entry, m *msg.Message) {
	e.Busy = true
	e.Active = m.Requester
	e.ActiveWrite = m.IsWrite
	r := m.Requester

	// If the home still believes the requester owns the block (and this
	// is not an in-place upgrade), the requester must have evicted it:
	// its writeback is in flight or already queued. Drain it first so the
	// request can be serviced from memory. Servicing may thus run later;
	// the entry records the request's fields (not the pooled message).
	if e.Owner == r && m.Type != msg.Upg {
		if wb, ok := n.takeQueuedWriteback(e, r); ok {
			n.homeWriteback(e, &wb.Transient)
			n.homeService(now, e, r, m.Type)
			return
		}
		e.AwaitingWB = true
		e.ResumeReq = r
		e.ResumeType = m.Type
		return
	}
	n.homeService(now, e, r, m.Type)
}

// homeService dispatches an activated request to its handler.
func (n *Node) homeService(now event.Time, e *directory.Entry, r msg.NodeID, reqType msg.Type) {
	switch reqType {
	case msg.GetS:
		n.homeGetS(now, e, r)
	case msg.GetM:
		n.homeGetM(e, r)
	case msg.Upg:
		if e.Owner == r {
			n.homeUpg(e, r)
		} else {
			// The upgrader lost ownership to an earlier racing
			// request; service as a full write miss.
			n.homeGetM(e, r)
		}
	default:
		panic(fmt.Sprintf("directoryproto: home %d: cannot activate %v from %d", n.ID, reqType, r))
	}
}

// takeQueuedWriteback removes and returns a queued writeback from src.
func (n *Node) takeQueuedWriteback(e *directory.Entry, src msg.NodeID) (directory.Pending, bool) {
	for i := range e.Queue {
		t := &e.Queue[i].Transient
		if (t.Type == msg.PutM || t.Type == msg.PutClean) && t.Src == src {
			p := e.Queue[i]
			e.Queue = append(e.Queue[:i], e.Queue[i+1:]...)
			return p, true
		}
	}
	return directory.Pending{}, false
}

// Deactivation-time directory commits (see directory.Entry.Commit).
const (
	// commitReadHome installs the reader as owner of a formerly
	// home-owned block.
	commitReadHome uint8 = iota + 1
	// commitRead installs the reader as owner; the previous owner (Prev)
	// joins the sharer set.
	commitRead
	// commitMigratory is the outcome-dependent migratory-read commit:
	// the deactivation reports whether the conversion happened.
	commitMigratory
	// commitWrite installs the writer as owner with no sharers.
	commitWrite
)

func (n *Node) homeGetS(now event.Time, e *directory.Entry, r msg.NodeID) {
	// Migratory detection bookkeeping: remember the most recent reader;
	// two distinct readers without an intervening write clear the mark.
	migratory := e.Migratory && e.Owner != directory.HomeOwner && e.Owner != r && n.noOtherSharers(e, r, e.Owner)
	if migratory {
		n.St.MigratoryUpgrades++
	} else if e.MigrArmed && e.LastReader != r {
		e.Migratory = false
	}
	e.LastReader = r
	e.MigrArmed = true

	if e.Owner == directory.HomeOwner {
		excl := e.Sharers.Count() == 0
		e.Commit = directory.Commit{Kind: commitReadHome, Req: r}
		n.SendAfter(event.Time(n.dir.DRAMLatency), n.Msg(msg.Message{
			Type: msg.Data, Addr: e.Addr, Dst: r, Requester: r,
			HasData: true, Owner: true, Exclusive: excl, AcksExpected: 0,
			Version: e.MemVersion,
		}))
		return
	}
	owner := e.Owner
	if migratory {
		// Migratory optimisation: ask the owner for an exclusive dirty
		// copy. The owner declines if it never wrote the block, keeping
		// an S copy, so the commit depends on the reported outcome.
		e.MigrAttempted = true
		e.Commit = directory.Commit{Kind: commitMigratory, Req: r, Prev: e.Owner}
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: owner, Requester: r,
			ToOwner: true, Migratory: true, AcksExpected: 0,
		}))
		return
	}
	e.Commit = directory.Commit{Kind: commitRead, Req: r, Prev: e.Owner}
	n.Send(n.Msg(msg.Message{
		Type: msg.Fwd, Addr: e.Addr, Dst: owner, Requester: r,
		ToOwner: true, AcksExpected: 0,
	}))
}

// noOtherSharers reports whether the sharer expansion (excluding r)
// contains nobody but owner, using the node's scratch buffer.
func (n *Node) noOtherSharers(e *directory.Entry, r, owner msg.NodeID) bool {
	members := e.Sharers.AppendMembers(n.Scratch[:0], r)
	n.Scratch = members[:0]
	for _, s := range members {
		if s != owner {
			return false
		}
	}
	return true
}

func (n *Node) homeGetM(e *directory.Entry, r msg.NodeID) {
	// A write by the most recent reader is the migratory hand-off
	// pattern; a write by anyone else is write sharing.
	e.Migratory = e.MigrArmed && e.LastReader == r
	e.MigrArmed = false

	sharers := n.invalidationTargets(e, r)
	acks := len(sharers)
	e.Commit = directory.Commit{Kind: commitWrite, Req: r}
	if e.Owner == directory.HomeOwner {
		n.SendAfter(event.Time(n.dir.DRAMLatency), n.Msg(msg.Message{
			Type: msg.Data, Addr: e.Addr, Dst: r, Requester: r,
			HasData: true, Owner: true, Exclusive: acks == 0, AcksExpected: acks,
			Version: e.MemVersion,
		}))
	} else {
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: e.Owner, Requester: r,
			ToOwner: true, IsWrite: true, AcksExpected: acks,
		}))
	}
	if acks > 0 {
		n.Multicast(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true,
		}), sharers)
	}
}

func (n *Node) homeUpg(e *directory.Entry, r msg.NodeID) {
	// The migratory hand-off usually reaches the home as an upgrade
	// (ownership moved to the reader with its GetS), so the detector
	// runs here as well as in homeGetM.
	e.Migratory = e.MigrArmed && e.LastReader == r
	e.MigrArmed = false

	sharers := n.invalidationTargets(e, r)
	acks := len(sharers)
	e.Commit = directory.Commit{Kind: commitWrite, Req: r}
	n.Send(n.Msg(msg.Message{Type: msg.AckCount, Addr: e.Addr, Dst: r, Requester: r, AcksExpected: acks}))
	if acks > 0 {
		n.Multicast(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true,
		}), sharers)
	}
}

// invalidationTargets expands the (possibly inexact) sharer encoding
// into the node's scratch buffer, excluding the requester and the owner
// (which receives its own forward). The result is consumed before the
// buffer's next use.
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

// applyCommit performs the deactivation-time directory update recorded
// at activation (the former OnDeactivate closure, as data).
//
//patch:steadystate
func (n *Node) applyCommit(e *directory.Entry, deact *msg.Message) {
	c := e.Commit
	e.Commit = directory.Commit{}
	switch c.Kind {
	case commitReadHome:
		e.Owner = c.Req
		if n.dir.Enc.Coarseness == 1 {
			e.Sharers.Remove(c.Req)
		}
	case commitRead:
		e.Owner = c.Req
		e.Sharers.Add(c.Prev)
		if n.dir.Enc.Coarseness == 1 {
			e.Sharers.Remove(c.Req)
		}
	case commitMigratory:
		e.Owner = c.Req
		if deact.Migratory {
			e.Sharers.Clear()
		} else {
			e.Sharers.Add(c.Prev)
			if n.dir.Enc.Coarseness == 1 {
				e.Sharers.Remove(c.Req)
			}
		}
	case commitWrite:
		e.Owner = c.Req
		e.Sharers.Clear()
	}
}

// homeDeactivate commits the active transaction's directory update and
// services the next queued request or writeback.
func (n *Node) homeDeactivate(now event.Time, m *msg.Message) {
	e := n.dir.Entry(m.Addr)
	if !e.Busy || e.Active != m.Requester {
		panic(fmt.Sprintf("directoryproto: home %d: spurious deactivate %v", n.ID, m))
	}
	n.applyCommit(e, m)
	if e.MigrAttempted {
		// The owner reported (via the requester) whether the conversion
		// actually happened; an unwritten block is not migrating.
		if !m.Migratory {
			e.Migratory = false
		}
		e.MigrAttempted = false
	}
	if e.Owner != directory.HomeOwner {
		e.DataAtMemory = false
	}
	e.Busy = false
	e.Active = 0
	n.drainQueue(now, e)
}

func (n *Node) drainQueue(now event.Time, e *directory.Entry) {
	for len(e.Queue) > 0 && !e.Busy {
		p := e.PopQueue()
		switch p.Transient.Type {
		case msg.PutM, msg.PutClean:
			n.homeWriteback(e, &p.Transient)
		default:
			n.homeActivate(now, e, &p.Transient)
		}
	}
}
