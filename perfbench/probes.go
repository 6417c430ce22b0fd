package main

import (
	"fmt"
	"math/rand"
	"time"

	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/sim"
	"patch/internal/workload"
)

// probeSim times the ROADMAP's hot paths in isolation, each through its
// public functions: a workload's own addresses drive the cache and
// directory probes, and the event-queue probe holds the queue depth the
// traced runs peaked at. Iteration counts are fixed, so each probe does
// the same work on every run.
func probeSim(b *bench, cfg sim.Config, depth int) {
	addrs, err := workloadAddrs(cfg)
	if err != nil {
		b.miss("probe addresses: %v", err)
		return
	}
	m := b.layer
	m["event.probe_ns_push_pop"] = probeEvents(depth, b.opt.seed)
	m["cache.probe_ns_lookup"] = probeLookup(addrs)
	m["directory.probe_ns_entry"] = probeEntry(addrs, cfg.Cores)
	m["msg.probe_ns_pool"] = probePool()
	m["interconnect.probe_ns_per_copy"] = probeMulticast(cfg.Cores)
	b.note("probes: push/pop %.1f ns at depth %d, lookup %.1f ns, entry %.1f ns, pool %.1f ns, multicast %.1f ns/copy over %d addresses",
		m["event.probe_ns_push_pop"], depth, m["cache.probe_ns_lookup"], m["directory.probe_ns_entry"],
		m["msg.probe_ns_pool"], m["interconnect.probe_ns_per_copy"], len(addrs))
}

// workloadAddrs pulls the first probeAddrs operations of cfg's workload,
// round-robin over the cores. A trace gives at most what it holds: the
// count stops at its shortest core stream times the cores, and a replay
// driven past a core's end (which repeats that core's last address)
// fails, as it fails a simulation run.
func workloadAddrs(cfg sim.Config) ([]msg.Addr, error) {
	var gen workload.Generator
	n := probeAddrs
	if cfg.TraceFile != "" {
		rp, err := workload.OpenTrace(cfg.TraceFile, cfg.Cores)
		if err != nil {
			return nil, err
		}
		defer rp.Close()
		gen = rp
		n = min(n, rp.Len()*cfg.Cores)
	} else {
		g, err := workload.Named(cfg.Workload, cfg.Cores, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gen = g
	}
	addrs := make([]msg.Addr, n)
	for i := range addrs {
		addrs[i] = gen.Next(i % cfg.Cores).Addr
	}
	if rp, ok := gen.(workload.Replay); ok {
		if err := rp.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if k := rp.Overdriven(); k > 0 {
			return nil, fmt.Errorf("trace: %d reads past the end of a core's stream", k)
		}
	}
	return addrs, nil
}

// perOp times fn, which performs n operations, and returns ns per op.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeTask reschedules itself at a pseudo-random distance on every
// firing, so the queue stays at its starting depth.
type probeTask struct {
	eng    *event.Engine
	deltas []event.Time
	i      int
}

func (t *probeTask) Fire(event.Time) {
	t.i++
	t.eng.AfterTask(t.deltas[t.i%len(t.deltas)], t)
}

func probeEvents(depth int, seed int64) float64 {
	depth = max(depth, 1)
	rng := rand.New(rand.NewSource(seed))
	deltas := make([]event.Time, 4096)
	for i := range deltas {
		deltas[i] = event.Time(1 + rng.Intn(200))
	}
	eng := &event.Engine{}
	tasks := make([]probeTask, depth)
	for i := range tasks {
		tasks[i] = probeTask{eng: eng, deltas: deltas, i: i}
		eng.AfterTask(deltas[i%len(deltas)], &tasks[i])
	}
	eng.Run(uint64(depth)) // settle
	return perOp(probeRequests, func() { eng.Run(probeRequests) })
}

var sinkLine *cache.Line

// probeLookup fills an L2-sized cache with the workload's addresses, as
// a node's L2 would hold them, and times Lookup over the same stream.
func probeLookup(addrs []msg.Addr) float64 {
	c := cache.New(cache.Config{SizeBytes: 1 << 20, Ways: 4, BlockSize: msg.BlockBytes})
	for _, a := range addrs {
		c.Allocate(a)
	}
	return perOp(probeRequests, func() {
		for i := 0; i < probeRequests; i++ {
			if l := c.Lookup(addrs[i%len(addrs)]); l != nil {
				sinkLine = l
			}
		}
	})
}

var sinkEntry *directory.Entry

// probeEntry times directory.Entry on a home slice that has seen every
// address once (steady-state lookups of existing entries).
func probeEntry(addrs []msg.Addr, cores int) float64 {
	d := directory.New(0, directory.FullMap(cores), cores)
	for _, a := range addrs {
		d.Entry(a)
	}
	return perOp(probeRequests, func() {
		for i := 0; i < probeRequests; i++ {
			sinkEntry = d.Entry(addrs[i%len(addrs)])
		}
	})
}

// probePool times a msg.Pool New/Release round trip.
func probePool() float64 {
	var p msg.Pool
	v := msg.Message{Type: msg.Data, HasData: true, Tokens: 1}
	return perOp(probeRequests, func() {
		for i := 0; i < probeRequests; i++ {
			v.Addr = msg.Addr(i * msg.BlockBytes)
			p.Release(p.New(v))
		}
	})
}

// probeMulticast broadcasts a best-effort request from one node to every
// other on an idle torus and times each delivered copy, including the
// event-queue work the multicast tree walk schedules.
func probeMulticast(cores int) float64 {
	eng := &event.Engine{}
	net := interconnect.New(eng, cores, interconnect.DefaultConfig())
	for i := 0; i < cores; i++ {
		net.Register(msg.NodeID(i), func(event.Time, *msg.Message) {})
	}
	dsts := make([]msg.NodeID, 0, cores-1)
	for i := 1; i < cores; i++ {
		dsts = append(dsts, msg.NodeID(i))
	}
	rounds := probeRequests / 64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		m := net.NewMessage(msg.Message{Type: msg.DirectGetS, Addr: msg.Addr(i * msg.BlockBytes), BestEffort: true})
		net.Multicast(m, dsts)
		for eng.Step() {
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(max(net.Stats.Delivered, 1))
}
