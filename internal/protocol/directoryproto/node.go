// Package directoryproto implements DIRECTORY, the paper's baseline: a
// blocking MOESI+F directory protocol in the style of the GEMS
// distribution. Races are resolved without nacks by a busy/active state
// at the home; the arrival order at the home unambiguously determines the
// service order of racing requests (§5.1). Ownership transfers to the
// most recent requester on both read and write misses, the F state keeps
// clean data in caches, E avoids upgrade misses to unshared data (without
// silent E eviction), and a migratory-sharing optimisation converts reads
// to migratory blocks into exclusive transfers.
package directoryproto

import (
	"fmt"
	"sort"

	"patch/internal/addrmap"
	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/token"
)

// mshr tracks one outstanding miss.
type mshr struct {
	addr      msg.Addr
	isWrite   bool
	upgrade   bool
	migratory bool // completed via a confirmed migratory conversion
	issued    event.Time
	hasData   bool
	acksWant  int // -1 until the data/ack-count response announces it
	acksGot   int
	done      []func()
	waiters   []waiter // ops that arrived while this miss was pending
}

type waiter struct {
	isWrite bool
	done    func()
}

// wbEntry is a writeback buffer slot: the evicted owner line is retained
// (and can service forwards) until the home acknowledges the writeback.
type wbEntry struct {
	dirty   bool
	written bool
	version uint64
}

// Node is one core's DIRECTORY controller plus the home-directory slice
// for addresses interleaved to it.
type Node struct {
	protocol.Base
	dir   *directory.Directory
	mshrs map[msg.Addr]*mshr

	// wb is the writeback buffer, keyed by block. A small side table
	// with frequent insert/delete churn, so it lives in an addrmap (a
	// few array probes, deterministic iteration, Clear-able for reuse)
	// rather than a Go map.
	wb addrmap.Map[wbEntry]

	// mshrFree recycles MSHRs; together with the pooled tasks in
	// protocol.Base it makes the steady-state miss path allocation-free.
	mshrFree protocol.FreeList[mshr]

	// avoid is the victim filter passed to AllocateAvoid, built once so
	// the per-miss line installation does not allocate a closure.
	avoid func(msg.Addr) bool
}

// New creates a DIRECTORY node.
func New(id msg.NodeID, env *protocol.Env, enc directory.Encoding) *Node {
	n := &Node{
		Base:  protocol.NewBase(id, env),
		dir:   directory.New(id, enc, 0),
		mshrs: make(map[msg.Addr]*mshr),
	}
	n.Self = n
	n.Deferred = n.homeReceive
	n.avoid = func(a msg.Addr) bool { _, busy := n.mshrs[a]; return busy }
	n.dir.LookupLatency = env.DirLatency
	n.dir.DRAMLatency = env.DRAMLatency
	return n
}

// Reset returns the node to its freshly constructed state for enc,
// retaining allocated capacity (cache arrays, directory slabs and
// index, writeback table, MSHR and task free-lists). It must only be
// called on a quiesced node of a drained system; behaviour after a
// reset is indistinguishable from a new node's.
func (n *Node) Reset(enc directory.Encoding) {
	n.ResetBase()
	n.dir.Reset(enc, 0)
	n.dir.LookupLatency = n.Env.DirLatency
	n.dir.DRAMLatency = n.Env.DRAMLatency
	//lint:allow determinism defensive sweep of a map that is empty on a quiesced node; order cannot matter
	for _, m := range n.mshrs {
		n.freeMSHR(m)
	}
	clear(n.mshrs)
	n.wb.Clear()
}

// newMSHR acquires a recycled (or new) MSHR initialised for one miss.
//
//patch:steadystate
func (n *Node) newMSHR(addr msg.Addr, isWrite bool) *mshr {
	m := n.mshrFree.Get()
	*m = mshr{
		addr: addr, isWrite: isWrite, issued: n.Env.Eng.Now(), acksWant: -1,
		done: m.done[:0], waiters: m.waiters[:0],
	}
	return m
}

// freeMSHR recycles a retired MSHR, dropping callback references so
// retired closures stay collectable.
//
//patch:steadystate
func (n *Node) freeMSHR(m *mshr) {
	clear(m.done)
	m.done = m.done[:0]
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	n.mshrFree.Put(m)
}

// Quiesced implements protocol.Node.
func (n *Node) Quiesced() bool {
	if len(n.mshrs) != 0 || n.wb.Len() != 0 {
		return false
	}
	quiet := true
	n.dir.ForEach(func(e *directory.Entry) {
		if e.Busy || len(e.Queue) != 0 {
			quiet = false
		}
	})
	return quiet
}

// Directory exposes the home slice for checkers.
func (n *Node) Directory() *directory.Directory { return n.dir }

// AppendMSHRDiags appends one record per outstanding miss, sorted by
// address, for the simulator's failure diagnostics.
func (n *Node) AppendMSHRDiags(dst []protocol.MSHRDiag) []protocol.MSHRDiag {
	addrs := make([]msg.Addr, 0, len(n.mshrs))
	for a := range n.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		m := n.mshrs[a]
		dst = append(dst, protocol.MSHRDiag{Node: n.ID, Addr: a, Issued: m.issued, Write: m.isWrite})
	}
	return dst
}

// Access implements protocol.Node.
func (n *Node) Access(addr msg.Addr, isWrite bool, done func()) {
	if isWrite {
		n.St.Stores++
	} else {
		n.St.Loads++
	}
	line := n.L2.Access(addr)
	if line != nil && n.sufficient(line, isWrite) {
		if isWrite {
			if line.MOESI == token.E {
				line.MOESI = token.M // silent E->M upgrade
			}
			line.Written = true
			line.Version++
		}
		n.ObservePerform(addr, isWrite, line.Version)
		lvl := 2
		if n.InL1(addr) {
			lvl = 1
			n.St.L1Hits++
		} else {
			n.St.L2Hits++
			n.TouchL1(addr)
		}
		n.Env.Eng.After0(n.HitLatency(lvl), done)
		return
	}
	// Miss. If an MSHR for this block is already outstanding, queue
	// behind it and retry on retirement.
	if m := n.mshrs[addr]; m != nil {
		m.waiters = append(m.waiters, waiter{isWrite, done})
		return
	}
	n.St.Misses++
	m := n.newMSHR(addr, isWrite)
	m.done = append(m.done, done)
	n.mshrs[addr] = m

	t := msg.GetS
	if isWrite {
		t = msg.GetM
		if line != nil && line.MOESI != token.I && line.MOESI != token.S {
			// Owner states (O/F): upgrade in place.
			t = msg.Upg
			m.upgrade = true
			n.St.UpgradeMisses++
		}
	}
	n.Send(n.Msg(msg.Message{Type: t, Addr: addr, Dst: n.Env.HomeOf(addr), Requester: n.ID, IsWrite: isWrite}))
}

func (n *Node) sufficient(l *cache.Line, isWrite bool) bool {
	if isWrite {
		return l.MOESI == token.M || l.MOESI == token.E
	}
	return l.MOESI != token.I
}

// Handle implements protocol.Node.
func (n *Node) Handle(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM, msg.Upg, msg.PutM, msg.PutClean:
		n.Defer(event.Time(n.dir.LookupLatency), m)
	case msg.Deactivate:
		n.homeDeactivate(now, m)
	case msg.Fwd:
		n.cacheFwd(now, m)
	case msg.Data:
		n.cacheData(now, m)
	case msg.Ack:
		n.cacheAck(now, m)
	case msg.AckCount:
		n.cacheAckCount(now, m)
	case msg.PutAck:
		n.wb.Delete(m.Addr)
	default:
		panic(fmt.Sprintf("directoryproto: node %d: unexpected %v", n.ID, m))
	}
}

// ---------------------------------------------------------------------------
// Cache side.

// cacheData handles the data response for an outstanding miss.
func (n *Node) cacheData(now event.Time, m *msg.Message) {
	ms := n.mshrs[m.Addr]
	if ms == nil {
		panic(fmt.Sprintf("directoryproto: node %d: data with no MSHR: %v", n.ID, m))
	}
	ms.hasData = true
	if m.AcksExpected >= 0 {
		ms.acksWant = m.AcksExpected
	}
	if m.Migratory {
		ms.migratory = true
	}
	n.ObserveRTT(now - ms.issued)
	line := n.installLine(m.Addr)
	if m.Version > line.Version {
		line.Version = m.Version
	}
	if ms.isWrite {
		line.MOESI = token.M // finalised at completion; acks may be pending
	} else {
		switch {
		case m.Migratory || (m.Exclusive && m.OwnerDirty):
			line.MOESI = token.M
			n.St.MigratoryUpgrades++
		case m.Exclusive:
			line.MOESI = token.E
		case m.OwnerDirty:
			line.MOESI = token.O
		default:
			line.MOESI = token.F
		}
	}
	if m.Src != n.Env.HomeOf(m.Addr) {
		n.St.SharingMisses++
	} else {
		n.St.MemoryMisses++
	}
	n.maybeComplete(now, ms)
}

func (n *Node) cacheAck(now event.Time, m *msg.Message) {
	ms := n.mshrs[m.Addr]
	if ms == nil {
		// A stale invalidation ack for a miss that was already satisfied
		// cannot occur in DIRECTORY (acks are counted before completion),
		// so treat it as a protocol bug.
		panic(fmt.Sprintf("directoryproto: node %d: ack with no MSHR: %v", n.ID, m))
	}
	ms.acksGot++
	n.maybeComplete(now, ms)
}

// cacheAckCount is the home's upgrade grant: the requester keeps its data
// and now knows how many invalidation acks to await.
func (n *Node) cacheAckCount(now event.Time, m *msg.Message) {
	ms := n.mshrs[m.Addr]
	if ms == nil {
		panic(fmt.Sprintf("directoryproto: node %d: ackcount with no MSHR: %v", n.ID, m))
	}
	ms.hasData = true
	ms.acksWant = m.AcksExpected
	n.ObserveRTT(now - ms.issued)
	n.maybeComplete(now, ms)
}

func (n *Node) maybeComplete(now event.Time, ms *mshr) {
	if !ms.hasData || ms.acksWant < 0 || ms.acksGot < ms.acksWant {
		return
	}
	line := n.L2.Lookup(ms.addr)
	if line == nil {
		panic("directoryproto: completing miss without a line")
	}
	if ms.isWrite {
		line.MOESI = token.M
		line.Written = true
		line.Version++
	}
	n.ObservePerform(ms.addr, ms.isWrite, line.Version)
	n.TouchL1(ms.addr)
	n.St.MissLatencySum += uint64(now - ms.issued)
	delete(n.mshrs, ms.addr)
	n.Send(n.Msg(msg.Message{
		Type: msg.Deactivate, Addr: ms.addr, Dst: n.Env.HomeOf(ms.addr),
		Requester: n.ID, Migratory: ms.migratory,
	}))
	for _, d := range ms.done {
		d()
	}
	// Replay any accesses that queued behind this miss.
	for _, w := range ms.waiters {
		n.Replay(1, ms.addr, w.isWrite, w.done)
	}
	n.freeMSHR(ms)
}

// installLine allocates the block, performing victim writebacks.
func (n *Node) installLine(addr msg.Addr) *cache.Line {
	line, evicted := n.L2.AllocateAvoid(addr, n.avoid)
	if evicted.Present {
		n.evict(&evicted)
	}
	return line
}

func (n *Node) evict(l *cache.Line) {
	n.InvalidateL1(l.Addr)
	switch l.MOESI {
	case token.M, token.O:
		n.St.WritebacksDirty++
		*n.wb.Ptr(l.Addr) = wbEntry{dirty: true, written: l.Written, version: l.Version}
		n.Send(n.Msg(msg.Message{Type: msg.PutM, Addr: l.Addr, Dst: n.Env.HomeOf(l.Addr), Requester: n.ID, HasData: true, Version: l.Version}))
	case token.E, token.F:
		n.St.WritebacksClean++
		*n.wb.Ptr(l.Addr) = wbEntry{dirty: false, version: l.Version}
		n.Send(n.Msg(msg.Message{Type: msg.PutClean, Addr: l.Addr, Dst: n.Env.HomeOf(l.Addr), Requester: n.ID}))
	case token.S:
		// Silent eviction of shared blocks: the directory's sharer bit
		// goes stale, producing the unnecessary acks §7 analyses.
	}
}

// cacheFwd services a request forwarded by the home: an invalidation to a
// sharer, or a read/write forward to the owner.
func (n *Node) cacheFwd(now event.Time, m *msg.Message) {
	line := n.L2.Lookup(m.Addr)
	if m.IsWrite && !m.ToOwner {
		// Invalidation to a (possibly stale) sharer: DIRECTORY sharers
		// always acknowledge, present or not (§7's scalability cost).
		if line != nil {
			line.MOESI = token.I
			n.L2.Drop(line)
			n.InvalidateL1(m.Addr)
		}
		n.Send(n.Msg(msg.Message{Type: msg.Ack, Addr: m.Addr, Dst: m.Requester, Requester: m.Requester}))
		return
	}
	// Owner forward.
	dirty, written := false, false
	var version uint64
	if line == nil {
		w, ok := n.wb.Get(m.Addr)
		if !ok {
			panic(fmt.Sprintf("directoryproto: node %d: owner forward but no line or wb: %v", n.ID, m))
		}
		dirty, written, version = w.dirty, w.written, w.version
		n.wb.Delete(m.Addr) // home will see a stale writeback and drop it
	} else {
		dirty = line.MOESI == token.M || line.MOESI == token.O
		written = line.Written
		version = line.Version
	}
	resp := n.Msg(msg.Message{
		Type: msg.Data, Addr: m.Addr, Dst: m.Requester, Requester: m.Requester,
		HasData: true, Owner: true, OwnerDirty: dirty,
		AcksExpected: m.AcksExpected, Version: version,
	})
	// A migratory conversion only proceeds if this owner actually wrote
	// the block since acquiring it; otherwise the block is not migrating
	// and the plain ownership transfer tells the home to clear its mark.
	if m.IsWrite || (m.Migratory && written) {
		resp.Exclusive = true
		resp.Migratory = m.Migratory
		if line != nil {
			line.MOESI = token.I
			n.L2.Drop(line)
		}
		n.InvalidateL1(m.Addr)
	} else if line != nil {
		line.MOESI = token.S // ownership moves to the reader
	}
	n.Send(resp)
}
