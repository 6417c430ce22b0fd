// Package protocol holds the plumbing shared by the three coherence
// protocols in this repository (DIRECTORY, PATCH, TokenB): the node
// interface the simulator drives, the shared environment (engine,
// network, latencies, home mapping), per-node cache hierarchy and
// statistics, and round-trip latency tracking used to size timeouts.
package protocol

import (
	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
)

// Node is one core's coherence controller (cache side plus the home
// directory slice for the addresses interleaved to it). It is the whole
// contract the simulator and the litmus harness drive a protocol
// through: a new protocol implements it and never needs a type switch
// elsewhere.
type Node interface {
	// Access performs a memory operation. done is invoked (possibly
	// immediately, possibly cycles later) when the core may proceed.
	Access(addr msg.Addr, isWrite bool, done func())

	// Handle receives a coherence message from the interconnect.
	Handle(now event.Time, m *msg.Message)

	// Quiesced reports whether the node has no outstanding protocol work
	// (used by liveness checking at end of simulation).
	Quiesced() bool

	// Shared returns the state every node shares (caches, statistics,
	// observer, parked messages). Base provides it.
	Shared() *Base

	// Directory returns the node's home slice: the directory entries and
	// home token holdings for the blocks interleaved to it.
	Directory() *directory.Directory

	// AppendMSHRDiags appends one record per outstanding miss, sorted by
	// address, for the simulator's failure diagnostics.
	AppendMSHRDiags(dst []MSHRDiag) []MSHRDiag
}

// Nodes is a token.Holder over a system's nodes: every token held in
// an L2 line, a home slice, or a message parked at a node (a delayed
// send, whose tokens have left their holder but not reached the wire,
// or a delivered message waiting out the home lookup, whose tokens have
// left the wire but not reached the home).
type Nodes []Node

// TokenHoldings implements token.Holder.
func (ns Nodes) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	for _, n := range ns {
		b := n.Shared()
		b.L2.TokenHoldings(fn)
		n.Directory().TokenHoldings(fn)
		for _, t := range b.parked {
			if m := t.m; m.Tokens != 0 || m.Owner {
				fn(m.Addr, m.Tokens, m.Owner)
			}
		}
	}
}

// MSHRDiag describes one outstanding miss for liveness forensics. The
// per-protocol AppendMSHRDiags accessors emit them sorted by address so
// diagnostic dumps are deterministic.
type MSHRDiag struct {
	Node   msg.NodeID
	Addr   msg.Addr
	Issued event.Time
	Write  bool
}

// Env is the environment shared by all nodes of one simulated system.
type Env struct {
	Eng *event.Engine
	Net *interconnect.Network
	N   int // number of cores

	BlockSize   int
	L1Latency   int
	L2Latency   int
	DirLatency  int
	DRAMLatency int

	// L1Bytes and L2Bytes size the private hierarchy (64 KB / 1 MB in the
	// paper); tests shrink them to force evictions and writeback races.
	L1Bytes int
	L2Bytes int

	// Tokens is the per-block token count for token-based protocols
	// (normally equal to N); 0 for the pure directory protocol.
	Tokens int
}

// DefaultEnv fills in the paper's latency parameters (§8.1).
func DefaultEnv(eng *event.Engine, net *interconnect.Network, n int) *Env {
	return &Env{
		Eng: eng, Net: net, N: n,
		BlockSize:   msg.BlockBytes,
		L1Latency:   1,
		L2Latency:   12,
		DirLatency:  16,
		DRAMLatency: 80,
		L1Bytes:     64 << 10,
		L2Bytes:     1 << 20,
		Tokens:      n,
	}
}

// HomeOf maps a block address to its home node by block interleaving.
func (e *Env) HomeOf(a msg.Addr) msg.NodeID {
	return msg.NodeID((uint64(a) / uint64(e.BlockSize)) % uint64(e.N))
}

// Stats collects the per-node performance counters the experiments
// aggregate.
type Stats struct {
	Loads, Stores     uint64
	L1Hits, L2Hits    uint64
	Misses            uint64 // demand misses that went to the protocol
	MissLatencySum    uint64 // cycles from issue to core restart
	SharingMisses     uint64 // misses served by another cache
	MemoryMisses      uint64 // misses served by memory
	Reissues          uint64 // TokenB reissued requests
	PersistentReqs    uint64 // TokenB persistent-request escalations
	TenureTimeouts    uint64 // PATCH untenured-token discards
	DirectIgnored     uint64 // direct requests ignored by policy
	DirectResponded   uint64 // direct requests answered with tokens
	WritebacksDirty   uint64
	WritebacksClean   uint64
	UpgradeMisses     uint64
	MigratoryUpgrades uint64 // GetS converted to exclusive by migratory opt
}

// Base carries the pieces every protocol node shares: identity, the
// two-level private cache hierarchy (64 KB L1 filter over a 1 MB L2),
// statistics, and RTT tracking.
type Base struct {
	ID  msg.NodeID
	Env *Env
	L1  *cache.Cache
	L2  *cache.Cache
	St  Stats

	// Self is the protocol node embedding this Base, set once at
	// construction; the pooled replay tasks call Self.Access without
	// allocating a method-value closure.
	Self Node

	// Deferred handles a message held by Defer once its delay elapses.
	// Nodes that Defer set it once at construction.
	Deferred func(now event.Time, m *msg.Message)

	// Observer, when set, is invoked at the instant each memory operation
	// is performed, with the block's write version at that point (the
	// version a load observed, or the version a store produced). Checkers
	// use it to verify per-core coherence order online.
	Observer func(addr msg.Addr, isWrite bool, version uint64)

	// avgRTT is an exponentially weighted moving average of observed
	// request round trips, used by PATCH (tenure timeout = 2x) and TokenB
	// (reissue timeout = 2x). Initialised from the network diameter.
	avgRTT float64

	// others caches the OthersExcept broadcast set.
	others []msg.NodeID

	// Scratch is a per-node destination-id scratch buffer for
	// SharerSet.AppendMembers expansions on the hot path; each use
	// re-slices it to zero length and consumes the result before the
	// next use.
	Scratch []msg.NodeID

	// replayFree and parkFree pool the node's deferred-work tasks so
	// steady-state waiter replays, delayed sends and home lookups
	// allocate nothing.
	replayFree FreeList[replayTask]
	parkFree   FreeList[parkTask]

	// parked tracks the messages the node holds across a latency:
	// delayed sends (SendAfter) and delivered messages waiting out the
	// home lookup (Defer). A token-carrying one has left its holder, or
	// the network, so during that window its tokens are visible neither
	// to any holder nor to the network auditor. Mid-run conservation
	// audits iterate this list to account for them (see Nodes).
	parked []*parkTask
}

// Shared implements Node for every protocol node embedding a Base.
func (b *Base) Shared() *Base { return b }

// FreeList is the shared recycling discipline for pooled per-node
// values (MSHRs, deferred home/timer/replay/send tasks): Get pops a
// recycled value or allocates a zero one, Put pushes one back. Callers
// reinitialise recycled values themselves — retaining grown capacity
// (a recycled MSHR's waiter slices) is the point — and must drop
// references (callbacks, pooled messages) before Put so retired work
// stays collectable.
type FreeList[T any] struct{ free []*T }

// Get pops a recycled value, or allocates a zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	return new(T)
}

// Put recycles a value.
func (f *FreeList[T]) Put(t *T) { f.free = append(f.free, t) }

// NewBase constructs the cache hierarchy with the paper's sizes.
func NewBase(id msg.NodeID, env *Env) Base {
	l1, l2 := env.L1Bytes, env.L2Bytes
	if l1 <= 0 {
		l1 = 64 << 10
	}
	if l2 <= 0 {
		l2 = 1 << 20
	}
	return Base{
		ID:     id,
		Env:    env,
		L1:     cache.New(cache.Config{SizeBytes: l1, Ways: 4, BlockSize: env.BlockSize}),
		L2:     cache.New(cache.Config{SizeBytes: l2, Ways: 4, BlockSize: env.BlockSize}),
		avgRTT: 100,
	}
}

// ObservePerform reports a performed operation to the Observer, if any.
func (b *Base) ObservePerform(addr msg.Addr, isWrite bool, version uint64) {
	if b.Observer != nil {
		b.Observer(addr, isWrite, version)
	}
}

// ResetBase returns the shared node state to its freshly constructed
// condition (empty caches, zero statistics, initial RTT estimate),
// retaining the cache arrays, scratch buffers and task free-lists. The
// protocol node layered above is responsible for its own state.
func (b *Base) ResetBase() {
	b.L1.Reset()
	b.L2.Reset()
	b.St = Stats{}
	b.Observer = nil
	b.avgRTT = 100
	for i, t := range b.parked {
		t.m = nil
		b.parked[i] = nil
	}
	b.parked = b.parked[:0]
}

// replayTask re-issues an access that queued behind an outstanding miss
// once the miss retires: the pooled-task replacement for the per-waiter
// closure the protocols used to schedule.
type replayTask struct {
	b       *Base
	addr    msg.Addr
	isWrite bool
	done    func()
}

// Fire implements event.Task.
func (t *replayTask) Fire(event.Time) {
	b, addr, isWrite, done := t.b, t.addr, t.isWrite, t.done
	t.done = nil
	b.replayFree.Put(t)
	b.Self.Access(addr, isWrite, done)
}

// Replay schedules Self.Access(addr, isWrite, done) d cycles from now
// using a pooled task, so replaying queued waiters allocates nothing in
// steady state.
func (b *Base) Replay(d event.Time, addr msg.Addr, isWrite bool, done func()) {
	t := b.replayFree.Get()
	t.b = b
	t.addr, t.isWrite, t.done = addr, isWrite, done
	b.Env.Eng.AfterTask(d, t)
}

// parkTask holds a message across a latency: the pooled replacement
// for After(d, func(){ ... m ... }) closures on home paths. A delayed
// send (directory and DRAM latencies) goes out on the network when it
// fires; a deferred delivery is handed to Deferred and released.
type parkTask struct {
	b        *Base
	m        *msg.Message
	pos      int  // index in b.parked, maintained by swap-removal
	received bool // a delivered message held by Defer, not a send
}

// Fire implements event.Task.
func (t *parkTask) Fire(now event.Time) {
	b, m, received := t.b, t.m, t.received
	t.m = nil
	b.unpark(t)
	b.parkFree.Put(t)
	if !received {
		b.Send(m)
		return
	}
	defer b.Env.Net.Release(m)
	b.Deferred(now, m)
}

// park holds m for d cycles on a pooled task recorded in b.parked.
func (b *Base) park(d event.Time, m *msg.Message, received bool) {
	t := b.parkFree.Get()
	t.b, t.m, t.received = b, m, received
	t.pos = len(b.parked)
	b.parked = append(b.parked, t)
	b.Env.Eng.AfterTask(d, t)
}

// SendAfter sends m (stamping the source at fire time, like Send) after
// d cycles, without allocating in steady state. The caller's reference
// to a pooled m is consumed when the send fires.
func (b *Base) SendAfter(d event.Time, m *msg.Message) { b.park(d, m, false) }

// Defer holds a delivered message for d cycles (the home's directory
// lookup), then hands it to Deferred and releases it. Deferred must copy
// anything it keeps past its own return.
func (b *Base) Defer(d event.Time, m *msg.Message) {
	b.Env.Net.Retain(m)
	b.park(d, m, true)
}

// unpark removes a fired parkTask from the parked list in O(1).
func (b *Base) unpark(t *parkTask) {
	last := len(b.parked) - 1
	moved := b.parked[last]
	b.parked[t.pos] = moved
	moved.pos = t.pos
	b.parked[last] = nil
	b.parked = b.parked[:last]
}

// NumParked returns how many messages the node holds across a latency
// (delayed sends and deferred deliveries).
func (b *Base) NumParked() int { return len(b.parked) }

// ResetStats clears the performance counters (after cache warmup) while
// preserving cache contents, predictor state and the RTT estimate.
func (b *Base) ResetStats() {
	b.St = Stats{}
	b.L1.ResetCounters()
	b.L2.ResetCounters()
}

// ObserveRTT folds a measured round trip into the moving average.
func (b *Base) ObserveRTT(rtt event.Time) {
	const alpha = 0.125
	b.avgRTT = (1-alpha)*b.avgRTT + alpha*float64(rtt)
}

// Timeout returns the adaptive timeout: twice the average round trip,
// floored to keep pathological short averages from thrashing.
func (b *Base) Timeout() event.Time {
	t := event.Time(2 * b.avgRTT)
	if t < 64 {
		t = 64
	}
	return t
}

// Msg acquires a pooled message initialised to v. Send/Multicast consume
// the reference; the network recycles the message after delivery, so a
// receiving handler that keeps it beyond its own return must Retain it
// (or copy it by value) and Release it when done.
func (b *Base) Msg(v msg.Message) *msg.Message { return b.Env.Net.NewMessage(v) }

// Send is a convenience wrapper stamping the source.
func (b *Base) Send(m *msg.Message) {
	m.Src = b.ID
	b.Env.Net.Send(m)
}

// Multicast stamps the source and fans out.
func (b *Base) Multicast(m *msg.Message, dsts []msg.NodeID) {
	m.Src = b.ID
	b.Env.Net.Multicast(m, dsts)
}

// OthersExcept returns every node id except self (broadcast destination
// sets for PATCH-ALL and TokenB). The slice is cached; callers must not
// mutate it.
func (b *Base) OthersExcept() []msg.NodeID {
	if b.others == nil {
		b.others = make([]msg.NodeID, 0, b.Env.N-1)
		for i := 0; i < b.Env.N; i++ {
			if msg.NodeID(i) != b.ID {
				b.others = append(b.others, msg.NodeID(i))
			}
		}
	}
	return b.others
}

// HitLatency models the L1/L2 lookup path for a hit that was filtered at
// level lvl (1 or 2).
func (b *Base) HitLatency(lvl int) event.Time {
	if lvl == 1 {
		return event.Time(b.Env.L1Latency)
	}
	return event.Time(b.Env.L2Latency)
}

// TouchL1 installs the block in the L1 filter (evictions are silent; L1
// is a latency filter and coherence lives at the L2).
func (b *Base) TouchL1(addr msg.Addr) {
	l, _ := b.L1.Allocate(addr)
	b.L1.Touch(l)
}

// InL1 reports an L1 filter hit, updating LRU.
func (b *Base) InL1(addr msg.Addr) bool {
	return b.L1.Access(addr) != nil
}

// InvalidateL1 removes the block from the L1 filter (L1 content must stay
// a subset of L2 coherence permissions).
func (b *Base) InvalidateL1(addr msg.Addr) {
	if l := b.L1.Lookup(addr); l != nil {
		b.L1.Drop(l)
	}
}
