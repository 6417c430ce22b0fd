// Package core implements PATCH (Predictive/Adaptive Token Counting
// Hybrid), the paper's primary contribution: a directory protocol
// augmented with token counting, best-effort direct requests, and the
// token-tenure forward-progress mechanism (Table 3).
//
// The cache side enforces coherence purely by token counting (Table 1):
// a write completes when all T tokens have arrived, a read when valid
// data and at least one token have. Misses issue an indirect request to
// the home plus optional predictive direct requests sent as droppable
// best-effort traffic. Token tenure makes races resolve without
// broadcast: tokens received by a processor that the home has not
// activated are untenured and must be discarded to the home after a
// probationary period (twice the dynamic average round trip), whence the
// home redirects them to the active requester.
package core

import (
	"fmt"
	"sort"

	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/token"
)

// Config selects the PATCH variant.
type Config struct {
	// Policy is the destination-set prediction policy (None, Owner,
	// BroadcastIfShared, All).
	Policy predictor.Policy

	// BestEffort delivers direct requests on the deprioritised droppable
	// virtual network (the paper's default). Setting it false yields
	// PATCH-ALL-NONADAPTIVE: guaranteed-delivery direct requests that
	// contend with everything else.
	BestEffort bool

	// TenureTimeoutFactor scales the probationary period relative to the
	// dynamic average round trip; 0 selects the paper's 2x (§5.2). Used
	// by the ablation benchmarks.
	TenureTimeoutFactor float64

	// NoDeactWindow disables the post-deactivation direct-request ignore
	// window (§5.2's second race mitigation). Used by the ablation
	// benchmarks.
	NoDeactWindow bool
}

type waiter struct {
	isWrite bool
	done    func()
}

// mshr tracks one outstanding PATCH request from issue to deactivation.
// The core is released as soon as tokens suffice (possibly before
// activation); the entry lives on until the home has activated the
// request and the deactivation has been sent.
type mshr struct {
	addr       msg.Addr
	seq        uint64
	isWrite    bool
	issued     event.Time
	activated  bool
	completed  bool // core released
	sawResp    bool
	classified bool // memory-vs-sharing classification recorded
	migratory  bool // satisfied by a confirmed migratory conversion
	done       []func()
	waiters    []waiter
	timer      event.Handle

	// n backs the Fire method: the armed mshr doubles as the tenure
	// timer's event.Task, so re-arming allocates no closure.
	n *Node
}

// Fire implements event.Task: the token-tenure probation expired.
func (m *mshr) Fire(now event.Time) { m.n.tenureTimeout(now, m) }

// Node is one core's PATCH controller plus its home-directory slice.
type Node struct {
	protocol.Base
	cfg   Config
	dir   *directory.Directory
	pred  *predictor.Predictor
	mshrs map[msg.Addr]*mshr

	// ignoreDirectUntil implements the post-deactivation window during
	// which direct (but not forwarded) requests are ignored (§5.2).
	ignoreDirectUntil map[msg.Addr]event.Time

	// tenureTimers guards unsolicited untenured holdings on lines with no
	// MSHR (late direct-request responses).
	tenureTimers map[msg.Addr]event.Handle

	// seq numbers this node's transactions so that activation
	// notifications match the right request generation.
	seq uint64

	// Free-lists: recycled MSHRs and standalone tenure-timer tasks.
	// Together with the pooled tasks in protocol.Base they make the
	// steady-state miss path allocation-free.
	mshrFree protocol.FreeList[mshr]
	saFree   protocol.FreeList[saTimer]

	// avoid is the victim filter passed to AllocateAvoid, built once so
	// the per-miss line installation does not allocate a closure.
	avoid func(msg.Addr) bool
}

// New creates a PATCH node.
func New(id msg.NodeID, env *protocol.Env, enc directory.Encoding, cfg Config) *Node {
	n := &Node{
		Base:              protocol.NewBase(id, env),
		cfg:               cfg,
		dir:               directory.New(id, enc, env.Tokens),
		pred:              predictor.New(cfg.Policy, id, env.N),
		mshrs:             make(map[msg.Addr]*mshr),
		ignoreDirectUntil: make(map[msg.Addr]event.Time),
		tenureTimers:      make(map[msg.Addr]event.Handle),
	}
	n.Self = n
	n.Deferred = n.homeLookup
	n.avoid = func(a msg.Addr) bool { _, busy := n.mshrs[a]; return busy }
	n.dir.LookupLatency = env.DirLatency
	n.dir.DRAMLatency = env.DRAMLatency
	return n
}

// Reset returns the node to its freshly constructed state for cfg,
// retaining allocated capacity (cache arrays, directory slabs and index,
// predictor table, MSHR and task free-lists). It must only be called on
// a quiesced node of a drained system; behaviour after a reset is
// indistinguishable from a new node's.
func (n *Node) Reset(enc directory.Encoding, cfg Config) {
	n.ResetBase()
	n.cfg = cfg
	n.dir.Reset(enc, n.Env.Tokens)
	n.dir.LookupLatency = n.Env.DirLatency
	n.dir.DRAMLatency = n.Env.DRAMLatency
	n.pred.Reset(cfg.Policy)
	for _, m := range n.mshrs { // empty on a quiesced node
		m.timer.Cancel()
		n.freeMSHR(m)
	}
	clear(n.mshrs)
	clear(n.ignoreDirectUntil)
	clear(n.tenureTimers)
	n.seq = 0
}

// newMSHR acquires a recycled (or new) MSHR initialised for one miss.
//
//patch:steadystate
func (n *Node) newMSHR(addr msg.Addr, isWrite bool) *mshr {
	m := n.mshrFree.Get()
	*m = mshr{
		addr: addr, seq: n.seq, isWrite: isWrite, issued: n.Env.Eng.Now(),
		done: m.done[:0], waiters: m.waiters[:0], n: n,
	}
	return m
}

// freeMSHR recycles a retired MSHR. The caller must already have
// cancelled its timer and removed it from the MSHR table; callback
// references are dropped so retired closures stay collectable.
//
//patch:steadystate
func (n *Node) freeMSHR(m *mshr) {
	clear(m.done)
	m.done = m.done[:0]
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	n.mshrFree.Put(m)
}

// Directory exposes the home slice (checkers, tests).
func (n *Node) Directory() *directory.Directory { return n.dir }

// Predictor exposes the predictor (tests).
func (n *Node) Predictor() *predictor.Predictor { return n.pred }

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

// Quiesced implements protocol.Node.
func (n *Node) Quiesced() bool {
	if len(n.mshrs) != 0 {
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
			line.Tok.Dirty = true // Rule #2: writer marks the owner token dirty
			line.MOESI = token.M
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
	if m := n.mshrs[addr]; m != nil {
		m.waiters = append(m.waiters, waiter{isWrite, done})
		return
	}
	n.St.Misses++
	if isWrite && line != nil && !line.Tok.Zero() {
		n.St.UpgradeMisses++
	}
	n.seq++
	m := n.newMSHR(addr, isWrite)
	m.done = append(m.done, done)
	n.mshrs[addr] = m

	// Indirect request through the home: the correctness path.
	t := msg.GetS
	if isWrite {
		t = msg.GetM
	}
	n.Send(n.Msg(msg.Message{Type: t, Addr: addr, Dst: n.Env.HomeOf(addr), Requester: n.ID, IsWrite: isWrite, Seq: m.seq}))

	// Predictive direct requests: pure performance hints.
	if dsts := n.pred.Predict(addr); len(dsts) > 0 {
		dt := msg.DirectGetS
		if isWrite {
			dt = msg.DirectGetM
		}
		n.Multicast(n.Msg(msg.Message{
			Type: dt, Addr: addr, Requester: n.ID, IsWrite: isWrite,
			BestEffort: n.cfg.BestEffort,
		}), dsts)
	}

	// Arm the token-tenure probationary timer (Rule #4).
	n.armTenureTimer(m)
}

func (n *Node) sufficient(l *cache.Line, isWrite bool) bool {
	if isWrite {
		return l.Tok.CanWrite(n.Env.Tokens)
	}
	return l.Tok.CanRead()
}

// tenurePeriod returns the probationary period (paper: twice the
// dynamic average round trip).
func (n *Node) tenurePeriod() event.Time {
	f := n.cfg.TenureTimeoutFactor
	if f <= 0 {
		return n.Timeout()
	}
	t := event.Time(f * float64(n.Timeout()) / 2)
	if t < 16 {
		t = 16
	}
	return t
}

func (n *Node) armTenureTimer(m *mshr) {
	m.timer.Cancel()
	m.timer = n.Env.Eng.AfterTask(n.tenurePeriod(), m)
}

// tenureTimeout fires when the probationary period expires without an
// activation: any tokens held for the block are discarded to the home
// (Rule #4), which will redirect them to the active requester (Rule #5).
func (n *Node) tenureTimeout(now event.Time, m *mshr) {
	if m.activated || n.mshrs[m.addr] != m {
		return
	}
	if line := n.L2.Lookup(m.addr); line != nil && !line.Tok.Zero() {
		n.St.TenureTimeouts++
		n.returnTokensHome(line)
	}
	// The request remains outstanding at the home; tokens may arrive
	// again before activation, so keep the probation running.
	n.armTenureTimer(m)
}

// returnTokensHome sends a line's entire holding back to the home.
func (n *Node) returnTokensHome(line *cache.Line) {
	tokens, owner, dirty := line.Tok.TakeAll()
	ret := n.Msg(msg.Message{
		Type: msg.TokenReturn, Addr: line.Addr, Dst: n.Env.HomeOf(line.Addr), Requester: n.ID,
		Version: line.Version,
	})
	token.Attach(ret, tokens, owner, dirty, dirty) // Rule #4: dirty owner travels with data
	line.Untenured = false
	line.MOESI = token.I
	n.InvalidateL1(line.Addr)
	n.L2.Drop(line)
	n.Send(ret)
}

// Handle implements protocol.Node.
func (n *Node) Handle(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM, msg.PutM, msg.PutClean, msg.TokenReturn:
		n.Defer(event.Time(n.dir.LookupLatency), m)
	case msg.Deactivate:
		n.homeDeactivate(now, m)
	case msg.Fwd:
		n.cacheFwd(now, m)
	case msg.DirectGetS, msg.DirectGetM:
		n.cacheDirect(now, m)
	case msg.Data, msg.Ack, msg.Redirect, msg.Activation:
		n.cacheResponse(now, m)
	default:
		panic(fmt.Sprintf("core: PATCH node %d: unexpected %v", n.ID, m))
	}
}

// ---------------------------------------------------------------------------
// Cache side.

// cacheResponse folds an incoming token/data/activation message into the
// line and the outstanding request, applying the token-tenure arrival,
// promotion and deactivation rules.
func (n *Node) cacheResponse(now event.Time, m *msg.Message) {
	ms := n.mshrs[m.Addr]
	if m.Tokens > 0 || m.Owner {
		n.pred.ObserveResponse(m.Addr, m.Src)
	}

	var line *cache.Line
	if m.Tokens > 0 || m.Owner {
		line = n.installLine(m.Addr)
		line.Tok.Add(m.Tokens, m.Owner, m.OwnerDirty, m.HasData)
		if m.HasData && m.Version > line.Version {
			line.Version = m.Version
		}
	} else {
		line = n.L2.Lookup(m.Addr)
	}

	if ms == nil {
		// Unsolicited tokens (a straggling direct-request response after
		// the miss already deactivated): they arrive untenured (Rule #2)
		// and sit out a probationary period on a standalone timer.
		if line != nil && !line.Tok.Zero() {
			line.Untenured = true
			line.UntenuredAt = now
			n.armStandaloneTimer(m.Addr)
		}
		return
	}

	if !ms.sawResp {
		ms.sawResp = true
		n.ObserveRTT(now - ms.issued)
	}
	if m.HasData && !ms.classified {
		ms.classified = true
		if m.Src == n.Env.HomeOf(m.Addr) {
			n.St.MemoryMisses++
		} else {
			n.St.SharingMisses++
		}
	}
	if m.Activated && m.Seq == ms.seq && !ms.activated {
		ms.activated = true
		ms.timer.Cancel()
	}
	if m.Migratory {
		ms.migratory = true
	}
	if line != nil && !line.Tok.Zero() {
		if ms.activated {
			// Promotion Rule (#3): the active requester tenures all
			// tokens it possesses or receives.
			line.Untenured = false
		} else {
			line.Untenured = true
			line.UntenuredAt = now
		}
	}
	n.progress(now, ms)
}

// progress releases the core and/or deactivates when the token-counting
// completion conditions hold.
func (n *Node) progress(now event.Time, ms *mshr) {
	line := n.L2.Lookup(ms.addr)
	satisfied := line != nil && n.sufficient(line, ms.isWrite)
	if satisfied && !ms.completed {
		ms.completed = true
		if ms.isWrite {
			line.Tok.Dirty = true
			line.Written = true
			line.Version++
		}
		n.ObservePerform(ms.addr, ms.isWrite, line.Version)
		line.MOESI = line.Tok.ToMOESI(n.Env.Tokens)
		n.TouchL1(ms.addr)
		n.St.MissLatencySum += uint64(now - ms.issued)
		for _, d := range ms.done {
			d()
		}
		clear(ms.done)
		ms.done = ms.done[:0]
	}
	// Deactivation Rule (#7): once active with sufficient tenured
	// tokens, give up active status.
	if satisfied && ms.activated {
		line.Untenured = false
		n.retire(now, ms)
	}
}

// retire sends the deactivation, closes and recycles the MSHR, opens
// the post-deactivation direct-request ignore window, and replays any
// accesses that queued behind the miss.
func (n *Node) retire(now event.Time, ms *mshr) {
	ms.timer.Cancel()
	delete(n.mshrs, ms.addr)
	if !n.cfg.NoDeactWindow {
		n.ignoreDirectUntil[ms.addr] = now + n.tenurePeriod()
	}
	n.Send(n.Msg(msg.Message{
		Type: msg.Deactivate, Addr: ms.addr, Dst: n.Env.HomeOf(ms.addr),
		Requester: n.ID, Seq: ms.seq, Migratory: ms.migratory,
	}))
	for _, w := range ms.waiters {
		n.Replay(1, ms.addr, w.isWrite, w.done)
	}
	n.freeMSHR(ms)
}

// saTimer is the pooled standalone tenure timer: a probationary discard
// armed for tokens held on a line with no outstanding request.
type saTimer struct {
	n    *Node
	addr msg.Addr
}

// Fire implements event.Task: the standalone probation expired.
func (t *saTimer) Fire(event.Time) {
	n, addr := t.n, t.addr
	n.saFree.Put(t)
	delete(n.tenureTimers, addr)
	if n.mshrs[addr] != nil {
		return // a newer request now governs the line
	}
	line := n.L2.Lookup(addr)
	if line != nil && line.Untenured && !line.Tok.Zero() {
		n.St.TenureTimeouts++
		n.returnTokensHome(line)
	}
}

// armStandaloneTimer schedules a probationary discard for tokens held on
// a line with no outstanding request.
func (n *Node) armStandaloneTimer(addr msg.Addr) {
	if h, ok := n.tenureTimers[addr]; ok && h.Pending() {
		return
	}
	t := n.saFree.Get()
	t.n = n
	t.addr = addr
	n.tenureTimers[addr] = n.Env.Eng.AfterTask(n.tenurePeriod(), t)
}

// installLine allocates the block, evicting (non-silently: Rule #1
// forbids destroying tokens) as needed.
func (n *Node) installLine(addr msg.Addr) *cache.Line {
	line, evicted := n.L2.AllocateAvoid(addr, n.avoid)
	if evicted.Present {
		n.evict(&evicted)
	}
	return line
}

func (n *Node) evict(l *cache.Line) {
	n.InvalidateL1(l.Addr)
	if l.Tok.Zero() {
		return
	}
	tokens, owner, dirty := l.Tok.TakeAll()
	t := msg.PutClean
	if dirty {
		t = msg.PutM
		n.St.WritebacksDirty++
	} else {
		n.St.WritebacksClean++
	}
	wb := n.Msg(msg.Message{Type: t, Addr: l.Addr, Dst: n.Env.HomeOf(l.Addr), Requester: n.ID, Version: l.Version})
	token.Attach(wb, tokens, owner, dirty, dirty)
	n.Send(wb)
}

// cacheFwd services a forwarded request from the home. Forwarded
// requests are never ignored for having a miss outstanding (§5.2), but
// the active requester hoards (Rule #6a) — any forward it sees is a
// stale leftover from a previous activation. Zero-token holders stay
// silent unless they are the directory-designated owner target, whose
// response always flows so the activation bit reaches the requester.
func (n *Node) cacheFwd(now event.Time, m *msg.Message) {
	n.pred.ObserveRequest(m.Addr, m.Requester, m.IsWrite)
	if ms := n.mshrs[m.Addr]; ms != nil && ms.activated {
		return // hoard: rule #6a
	}
	line := n.L2.Lookup(m.Addr)
	n.respondToRequest(line, m, true)
}

// cacheDirect services a best-effort direct request, applying the ignore
// rules: outstanding miss (§5.2), untenured holdings (Rule #6c), and the
// post-deactivation window.
func (n *Node) cacheDirect(now event.Time, m *msg.Message) {
	n.pred.ObserveRequest(m.Addr, m.Requester, m.IsWrite || m.Type == msg.DirectGetM)
	if n.mshrs[m.Addr] != nil {
		n.St.DirectIgnored++
		return
	}
	if until, ok := n.ignoreDirectUntil[m.Addr]; ok {
		if now < until {
			n.St.DirectIgnored++
			return
		}
		delete(n.ignoreDirectUntil, m.Addr)
	}
	line := n.L2.Lookup(m.Addr)
	if line == nil || line.Tok.Zero() || line.Untenured {
		n.St.DirectIgnored++
		return
	}
	n.St.DirectResponded++
	n.respondToRequest(line, m, false)
}

// respondToRequest implements the processor response rules shared by
// forwarded and direct requests. forced forces a zero-token response
// (owner-targeted forwards must echo the activation bit).
func (n *Node) respondToRequest(line *cache.Line, m *msg.Message, fwd bool) {
	write := m.IsWrite || m.Type == msg.DirectGetM
	hasTokens := line != nil && !line.Tok.Zero()
	hasOwner := hasTokens && line.Tok.Owner

	resp := n.Msg(msg.Message{
		Addr: m.Addr, Dst: m.Requester, Requester: m.Requester,
		Activated: fwd && m.Activated, Seq: m.Seq,
	})
	if line != nil {
		resp.Version = line.Version
	}
	switch {
	case write && hasTokens:
		// Write request: surrender everything (data if we are the owner).
		tokens, owner, dirty := line.Tok.TakeAll()
		resp.Type = msg.Ack
		if owner {
			resp.Type = msg.Data
		}
		token.Attach(resp, tokens, owner, dirty, owner)
		line.MOESI = token.I
		line.Untenured = false
		n.InvalidateL1(m.Addr)
		n.L2.Drop(line)
	case !write && hasOwner && line.Tok.Count == n.Env.Tokens && line.Written &&
		(m.Migratory || !fwd):
		// Migratory read: this owner wrote the block and holds every
		// token. For home forwards this fires when the home's detector
		// requested a conversion; for direct requests the owner applies
		// the heuristic itself (as the owner cannot consult the
		// directory) — the same cache-side migratory support TokenB
		// uses. Hand over the exclusive dirty copy.
		tokens, owner, dirty := line.Tok.TakeAll()
		resp.Type = msg.Data
		resp.Migratory = true
		token.Attach(resp, tokens, owner, dirty, true)
		line.MOESI = token.I
		n.InvalidateL1(m.Addr)
		n.L2.Drop(line)
	case !write && hasOwner:
		// Read request: ownership moves to the reader (as in DIRECTORY).
		// The previous owner keeps exactly one token — staying a sharer —
		// and passes data, the owner token and the rest of the block's
		// token pool along, so successive readers of a chain each retain
		// an S copy.
		dirty := line.Tok.TakeOwner()
		keep := 0
		if line.Tok.Count >= 1 {
			keep = 1
		}
		give := 1 + line.Tok.TakeNonOwner(line.Tok.Count-keep)
		resp.Type = msg.Data
		token.Attach(resp, give, true, dirty, true)
		if keep == 0 {
			line.MOESI = token.I
			n.InvalidateL1(m.Addr)
			n.L2.Drop(line)
		} else {
			line.MOESI = token.S
		}
	case fwd && m.ToOwner:
		// Directory-designated owner with nothing left: respond anyway so
		// the activation bit is delivered (zero-token ack; the paper's
		// ack elision applies to sharers, the owner is a single node).
		resp.Type = msg.Ack
	default:
		// Zero-token sharer: ack elision — send nothing. This is the
		// property that lets PATCH out-scale DIRECTORY with inexact
		// sharer encodings (§7). The elided response goes straight back
		// to the pool.
		n.Env.Net.Release(resp)
		return
	}
	n.Send(resp)
}
