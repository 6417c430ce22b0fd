package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"patch"
	"patch/internal/cache"
	"patch/internal/core"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/protocol/directoryproto"
	"patch/internal/protocol/tokenb"
	"patch/internal/sim"
	"patch/internal/workload"
)

// Sizes of the two 64-core simulation workloads. One bcast-oltp64 run
// (one protocol) takes about a second on a 2-CPU host, one dir-trace64
// run about half that; both leave room for ten or more jobs in a 25 s
// window.
const (
	simCores    = 64
	bcastWarmup = 150
	bcastOps    = 150
	traceWarmup = 400
	traceOps    = 400
	simSubSeeds = 3 // distinct inputs per run, cycled
	// setupRepeats is how many times a run times its set-up, reporting
	// the median. Single set-ups after the first vary by 2x or more on a
	// shared host; a median of 9 moved by a third between runs.
	setupRepeats  = 25
	probeAddrs    = 1 << 16
	probeRequests = 1 << 21
)

// runBcast: PATCH-All (best effort) and TokenB on oltp at 64 cores. A
// job is one run of each, on one Reset-reused System per protocol.
func runBcast(b *bench) error {
	var protos [2][]sim.Config
	for k := 0; k < simSubSeeds; k++ {
		base := patch.Config{Cores: simCores, Workload: "oltp", OpsPerCore: bcastOps, WarmupOps: bcastWarmup, Seed: subSeed(b.opt.seed, k)}
		pa, tb := base, base
		pa.Protocol, pa.Variant = patch.PATCH, patch.VariantAll
		tb.Protocol = patch.TokenB
		protos[0] = append(protos[0], pa.ToSim())
		protos[1] = append(protos[1], tb.ToSim())
	}
	return runSim(b, []string{"PATCH-All", "TokenB"}, protos[:])
}

// runDirTrace: the Directory protocol at 64 cores replaying binary
// traces of the micro shared table, recorded from the seed first.
func runDirTrace(b *bench) error {
	var cfgs []sim.Config
	for k := 0; k < simSubSeeds; k++ {
		seed := subSeed(b.opt.seed, k)
		path := filepath.Join(b.opt.workdir, fmt.Sprintf("micro64-%d.ptrc", seed))
		if err := recordTrace(path, seed); err != nil {
			return err
		}
		c := patch.Config{Protocol: patch.Directory, Cores: simCores, TraceFile: path, OpsPerCore: traceOps, WarmupOps: traceWarmup, Seed: seed}
		cfgs = append(cfgs, c.ToSim())
	}
	return runSim(b, []string{"Directory"}, [][]sim.Config{cfgs})
}

func recordTrace(path string, seed int64) error {
	gen, err := workload.Named("micro", simCores, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.RecordBinary(f, gen, simCores, traceWarmup+traceOps); err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", path, err)
	}
	return f.Close()
}

// simTotals accumulates the per-layer counters of traced runs.
type simTotals struct {
	runs                                int
	events, handleCalls, nextCalls      float64
	sends, delivered, dropped, queue    float64
	linkBytes, l1, l2, evict, entries   float64
	misses, sharing, latency, responded float64
	ignored, tenure, reissues, persist  float64
	cycles, bpm, allocBytes, ops        float64
	runS, handleS, nextS, resetS        float64
	maxQueue                            int
}

// runSim drives a 64-core simulation workload: protos[p][k] is protocol
// p's configuration on input k. A job runs every protocol once on the
// next input.
func runSim(b *bench, labels []string, protos [][]sim.Config) error {
	// Set-up: a fresh NewSystem per protocol (including the trace open),
	// repeated; the last set is kept for the run.
	systems := make([]*sim.System, len(protos))
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		for p, s := range systems {
			if s != nil {
				s.Close()
				systems[p] = nil // collectable by the GC below
			}
		}
		runtime.GC()
		start := time.Now()
		for p := range protos {
			s, err := sim.NewSystem(protos[p][0])
			if err != nil {
				return err
			}
			systems[p] = s
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e["setup_s"] = median(setups)

	seen := digests{}
	var tot simTotals
	hooks := &simHooks{}
	type jobSample struct{ ops, secs float64 }
	var jobs, tracedJobs []jobSample
	replicaSecs := make([][]float64, len(protos)) // per protocol, for the report
	var wall time.Duration

	// job runs every protocol once on input k; the first job (untimed)
	// warms the arenas and records the reference digests.
	job := func(k int, traced, timed bool) error {
		tr := b.tr
		if !traced {
			tr = nil
		}
		run := tr.newRun()
		jobSpan := tr.begin(run, 0, "job")
		var js jobSample
		ok := true
		for p, cfgs := range protos {
			cfg := cfgs[k]
			b.attempted++
			s := systems[p]
			start := time.Now()
			sp := tr.begin(run, jobSpan, "sim.reset")
			err := s.Reset(cfg)
			tr.end(sp)
			resetDone := time.Now()
			if err != nil {
				b.miss("%s reset: %v", labels[p], err)
				ok = false
				continue
			}
			var ms0, ms1 runtime.MemStats
			if traced {
				hooks.attach(s)
				runtime.ReadMemStats(&ms0)
			}
			sp = tr.begin(run, jobSpan, "sim.run")
			runStart := time.Now()
			res, err := s.Run()
			runDur := time.Since(runStart)
			tr.end(sp)
			if traced {
				runtime.ReadMemStats(&ms1)
				hooks.detach(s)
			}
			elapsed := time.Since(start)
			if err != nil {
				b.miss("%s run (input %d): %v", labels[p], k, err)
				ok = false
				// A failed run cannot be Reset; rebuild.
				s.Close()
				if systems[p], err = sim.NewSystem(cfg); err != nil {
					return fmt.Errorf("rebuild after a failed run: %w", err)
				}
				continue
			}
			key := fmt.Sprintf("%s/%d", labels[p], k)
			if d, same := seen.check(key, res, s.Eng.Fired()); !same {
				b.miss("%s input %d: digest %s differs from the first run's %s (traced=%v)", labels[p], k, d, seen[key], traced)
				ok = false
			}
			ops := float64(cfg.Cores * (cfg.WarmupOps + cfg.OpsPerCore))
			js.ops += ops
			js.secs += elapsed.Seconds()
			if timed && !traced {
				replicaSecs[p] = append(replicaSecs[p], elapsed.Seconds())
			}
			if traced {
				tr.aggregate(run, sp, "protocol.handle", int64(hooks.handleCalls), time.Duration(hooks.handleNs))
				tr.aggregate(run, sp, "workload.next", int64(hooks.nextCalls), time.Duration(hooks.nextNs))
				tot.add(s, res, hooks, ops)
				tot.runS += runDur.Seconds()
				tot.resetS += resetDone.Sub(start).Seconds()
				tot.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			}
		}
		tr.end(jobSpan)
		if !timed || !ok {
			return nil
		}
		if traced {
			tracedJobs = append(tracedJobs, js)
		} else {
			jobs = append(jobs, js)
			wall += time.Duration(js.secs * 1e9)
		}
		return nil
	}
	if err := job(0, false, false); err != nil {
		return err
	}
	if err := b.measure(func(i int, traced bool) error {
		return job((i+1)%simSubSeeds, traced, true)
	}); err != nil {
		return err
	}
	for _, s := range systems {
		s.Close()
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no successful job")
	}

	rates := func(js []jobSample) []float64 {
		var out []float64
		for _, j := range js {
			out = append(out, j.ops/j.secs)
		}
		return out
	}
	// replica_s_p50 is taken per job, as its mean run time, so that
	// protocols of different speed never form a bimodal median.
	var jobMs, pairSecs []float64
	for _, j := range jobs {
		jobMs = append(jobMs, j.secs*1e3)
		pairSecs = append(pairSecs, j.secs/float64(len(protos)))
	}
	b.e2e["sim_ops_per_s"] = median(rates(jobs))
	b.e2e["replicas_per_s"] = float64(len(jobs)*len(protos)) / wall.Seconds()
	b.e2e["replica_s_p50"] = median(pairSecs)
	b.e2e["jobs_per_s"] = float64(len(jobs)) / wall.Seconds()
	b.e2e["job_ms_p50"] = median(jobMs)
	tl, tv := tail(jobMs)
	b.note("setup_s %.4f (median of %d)", b.e2e["setup_s"], len(setups))
	b.note("sim_ops_per_s %.0f (median of %d jobs of %v)", b.e2e["sim_ops_per_s"], len(jobs), labels)
	b.note("job_ms p50 %.1f %s %.1f (n=%d); replica_s_p50 %.3f (per job, mean over %d runs)", median(jobMs), tl, tv, len(jobMs), b.e2e["replica_s_p50"], len(protos))
	for p, secs := range replicaSecs {
		rl, rv := tail(secs)
		b.note("%s run s p50 %.3f %s %.3f (n=%d)", labels[p], median(secs), rl, rv, len(secs))
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		b.note("digest %s %s", key, seen[key])
	}
	if b.opt.trace {
		tot.report(b, median(rates(tracedJobs)), median(rates(jobs)))
		probeSim(b, protos[len(protos)-1][0], tot.maxQueue)
	}
	return nil
}

func (t *simTotals) add(s *sim.System, r *sim.Result, h *simHooks, ops float64) {
	t.runs++
	t.events += float64(s.Eng.Fired())
	t.maxQueue = max(t.maxQueue, s.Eng.MaxLen())
	t.handleCalls += float64(h.handleCalls)
	t.handleS += float64(h.handleNs) / 1e9
	t.nextCalls += float64(h.nextCalls)
	t.nextS += float64(h.nextNs) / 1e9
	t.sends += float64(h.sends)
	t.delivered += float64(h.delivered)
	ns := s.Net.Stats
	t.dropped += float64(ns.Dropped)
	t.queue += float64(ns.QueueCycles)
	t.linkBytes += float64(ns.LinkBytes)
	st := r.Stats
	t.l1 += float64(st.L1Hits)
	t.l2 += float64(st.L2Hits)
	t.misses += float64(st.Misses)
	t.sharing += float64(st.SharingMisses)
	t.latency += r.AvgMissLatency
	t.responded += float64(st.DirectResponded)
	t.ignored += float64(st.DirectIgnored)
	t.tenure += float64(st.TenureTimeouts)
	t.reissues += float64(st.Reissues)
	t.persist += float64(st.PersistentReqs)
	t.cycles += float64(r.Cycles)
	t.bpm += r.BytesPerMiss
	t.ops += ops
	for _, n := range s.Nodes {
		l2, dir := nodeParts(n)
		t.evict += float64(l2.Evictions)
		t.entries += float64(dir.Len())
	}
}

// nodeParts returns a node's L2 and its home directory slice.
func nodeParts(n protocol.Node) (*cache.Cache, *directory.Directory) {
	switch v := n.(type) {
	case *core.Node:
		return v.L2, v.Directory()
	case *tokenb.Node:
		return v.L2, v.Memory()
	case *directoryproto.Node:
		return v.L2, v.Directory()
	}
	panic(fmt.Sprintf("perfbench: unknown node type %T", n))
}

// report stores the per-layer means per traced run.
func (t *simTotals) report(b *bench, tracedRate, baseRate float64) {
	n := float64(t.runs)
	m := b.layer
	m["event.events"] = t.events / n
	m["event.max_queue"] = float64(t.maxQueue)
	m["event.loop_self_s"] = b.tr.selfSeconds("sim.run") / n
	m["event.ns_per_event"] = ratio(t.runS*1e9, t.events)
	m["interconnect.sends"] = t.sends / n
	m["interconnect.delivered"] = t.delivered / n
	m["interconnect.dropped_frac"] = ratio(t.dropped, t.dropped+t.delivered)
	m["interconnect.queue_cycles"] = t.queue / n
	m["interconnect.link_bytes"] = t.linkBytes / n
	m["cache.l1_hits"] = t.l1 / n
	m["cache.l2_hits"] = t.l2 / n
	m["cache.l2_evictions"] = t.evict / n
	m["directory.entries"] = t.entries / n
	m["protocol.handle_calls"] = t.handleCalls / n
	m["protocol.handle_s"] = t.handleS / n
	m["protocol.ns_per_handle"] = ratio(t.handleS*1e9, t.handleCalls)
	m["protocol.misses"] = t.misses / n
	m["protocol.sharing_misses"] = t.sharing / n
	m["protocol.avg_miss_latency_cycles"] = t.latency / n
	m["protocol.direct_responded"] = t.responded / n
	m["protocol.direct_ignored"] = t.ignored / n
	m["protocol.direct_useful_ratio"] = ratio(t.responded, t.responded+t.ignored)
	m["protocol.tenure_timeouts"] = t.tenure / n
	m["protocol.reissues"] = t.reissues / n
	m["protocol.persistent_reqs"] = t.persist / n
	m["workload.next_calls"] = t.nextCalls / n
	m["workload.next_s"] = t.nextS / n
	m["workload.ns_per_next"] = ratio(t.nextS*1e9, t.nextCalls)
	m["sim.sim_cycles"] = t.cycles / n
	m["sim.bytes_per_miss"] = t.bpm / n
	m["sim.reset_s"] = t.resetS / n
	m["sim.alloc_bytes_per_op"] = ratio(t.allocBytes, t.ops)
	m["trace.overhead_frac"] = 1 - ratio(tracedRate, baseRate)
	m["trace.base_per_s"] = baseRate
	b.note("trace: %d traced runs; sim_ops_per_s traced %.0f vs untraced %.0f; host time in handlers %.1f%%, Next %.1f%%, loop self %.1f%%",
		t.runs, tracedRate, baseRate, 100*t.handleS/t.runS, 100*t.nextS/t.runS, 100*(t.runS-t.handleS-t.nextS)/t.runS)
}

// simHooks times a System's layers from outside: each node's handler is
// re-registered through Net.Register, the workload generator is wrapped,
// and the message hooks are composed with whatever the System installed
// (the token auditor). Time a handler spends in a nested Next call is
// counted as Next time only.
type simHooks struct {
	handleCalls, nextCalls, sends, delivered uint64
	handleNs, nextNs                         int64
	depth                                    int
	epoch                                    time.Time

	onSend, onDeliver func(event.Time, *msg.Message)
}

func (h *simHooks) now() int64 { return int64(time.Since(h.epoch)) }

// attach instruments s; call after Reset and before Run.
func (h *simHooks) attach(s *sim.System) {
	*h = simHooks{epoch: time.Now(), onSend: s.Net.OnSend, onDeliver: s.Net.OnDeliver}
	for i, n := range s.Nodes {
		handle := n.Handle
		s.Net.Register(msg.NodeID(i), func(now event.Time, m *msg.Message) {
			h.handleCalls++
			if h.depth > 0 {
				handle(now, m)
				return
			}
			h.depth++
			start, next0 := h.now(), h.nextNs
			handle(now, m)
			h.handleNs += h.now() - start - (h.nextNs - next0)
			h.depth--
		})
	}
	if rp, ok := s.Gen.(workload.Replay); ok {
		s.Gen = &timedReplay{rp, h}
	} else {
		s.Gen = &timedGen{s.Gen, h}
	}
	send, deliver := h.onSend, h.onDeliver
	s.Net.OnSend = func(now event.Time, m *msg.Message) {
		if send != nil {
			send(now, m)
		}
		h.sends++
	}
	s.Net.OnDeliver = func(now event.Time, m *msg.Message) {
		if deliver != nil {
			deliver(now, m)
		}
		h.delivered++
	}
}

// detach restores the handlers and message hooks attach replaced (the
// generator is replaced by the next Reset).
func (h *simHooks) detach(s *sim.System) {
	for i, n := range s.Nodes {
		s.Net.Register(msg.NodeID(i), n.Handle)
	}
	s.Net.OnSend, s.Net.OnDeliver = h.onSend, h.onDeliver
}

func (h *simHooks) next(g workload.Generator, core int) workload.Op {
	start := h.now()
	op := g.Next(core)
	h.nextNs += h.now() - start
	h.nextCalls++
	return op
}

type timedGen struct {
	workload.Generator
	h *simHooks
}

func (g *timedGen) Next(core int) workload.Op { return g.h.next(g.Generator, core) }

// timedReplay keeps the Replay interface visible, so the simulator's
// over-drive and decode-error checks still run on traced replays.
type timedReplay struct {
	workload.Replay
	h *simHooks
}

func (g *timedReplay) Next(core int) workload.Op { return g.h.next(g.Replay, core) }
