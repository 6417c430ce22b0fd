package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"patch"
	"patch/internal/sim"
)

// Figure-4 sweep size: 16 cores at the experiments' quick scale, one
// seed per cell, so 5 mixes x 6 protocols = 30 replicas of about 0.1 s
// each. One seed rather than two halves a sweep, so a run's median is
// taken over twice as many sweeps.
const (
	figCores  = 16
	figOps    = 250
	figWarmup = 500
	figSeeds  = 1
)

func figMatrix(seed int64) patch.Matrix {
	return patch.Matrix{
		Base:      patch.Config{Cores: figCores, OpsPerCore: figOps, WarmupOps: figWarmup, Seed: seed},
		Workloads: patch.Workloads(),
		Protocols: patch.FigureProtocols(),
		Seeds:     figSeeds,
	}
}

// timedRunner wraps a patch.Runner to time each replica.
type timedRunner struct {
	inner patch.Runner
	rec   *sweepRecorder
}

func (r *timedRunner) RunReplica(cfg patch.Config) (*patch.Result, error) {
	sp := r.rec.tr.begin(r.rec.run, r.rec.parent, "replica")
	start := time.Now()
	res, err := r.inner.RunReplica(cfg)
	d := time.Since(start)
	r.rec.tr.end(sp)
	r.rec.mu.Lock()
	r.rec.replicas = append(r.rec.replicas, d.Seconds())
	r.rec.mu.Unlock()
	return res, err
}

func (r *timedRunner) Close() { r.inner.Close() }

// timedEmitter wraps an Emitter to time the emit path.
type timedEmitter struct {
	inner patch.Emitter
	rec   *sweepRecorder
}

func (e *timedEmitter) timed(fn func() error) error {
	sp := e.rec.tr.begin(e.rec.run, e.rec.parent, "emit")
	start := time.Now()
	err := fn()
	e.rec.tr.end(sp)
	e.rec.mu.Lock()
	e.rec.emit += time.Since(start)
	e.rec.mu.Unlock()
	return err
}

func (e *timedEmitter) Begin(n int) error { return e.timed(func() error { return e.inner.Begin(n) }) }
func (e *timedEmitter) Cell(c patch.CellResult) error {
	return e.timed(func() error { return e.inner.Cell(c) })
}
func (e *timedEmitter) End() error { return e.timed(e.inner.End) }

// sweepRecorder collects one sweep's replica and emit timings.
type sweepRecorder struct {
	tr          *tracer
	run, parent int

	mu       sync.Mutex
	replicas []float64
	emit     time.Duration
}

// runSweepFig4: a Figure-4-shaped matrix through patch.Sweep at
// Workers(nproc), CSV through EmitTo. A job is one whole sweep.
func runSweepFig4(b *bench) error {
	m := figMatrix(subSeed(b.opt.seed, 0))
	plan, err := m.Plan()
	if err != nil {
		return err
	}
	opsPerReplica := float64(figCores * (figOps + figWarmup))

	// Set-up: expand the plan and build one fresh simulation arena per
	// protocol kind, as the pool's workers do before their first
	// replicas; repeated, median reported.
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		start := time.Now()
		p, err := m.Plan()
		if err != nil {
			return err
		}
		built := map[patch.Protocol]bool{}
		for i := 0; i < p.NumReplicas(); i++ {
			cfg := p.ReplicaConfig(i)
			if built[cfg.Protocol] {
				continue
			}
			built[cfg.Protocol] = true
			s, err := sim.NewSystem(cfg.ToSim())
			if err != nil {
				return err
			}
			s.Close()
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e["setup_s"] = median(setups)

	var ref []byte
	sweep := func(traced bool) (*sweepRecorder, time.Duration, []byte, error) {
		rec := &sweepRecorder{}
		if traced {
			rec.tr = b.tr
			rec.run = b.tr.newRun()
			rec.parent = b.tr.begin(rec.run, 0, "sweep")
		}
		var csv bytes.Buffer
		start := time.Now()
		_, err := patch.Sweep(context.Background(), m,
			patch.Workers(b.workers),
			patch.WithRunnerFactory(func() patch.Runner { return &timedRunner{patch.NewRunner(), rec} }),
			patch.EmitTo(&timedEmitter{&patch.CSVEmitter{W: &csv}, rec}))
		d := time.Since(start)
		b.tr.end(rec.parent)
		return rec, d, csv.Bytes(), err
	}
	// The first sweep (untimed) warms up and is the CSV reference.
	b.attempted++
	if _, _, ref, err = sweep(false); err != nil {
		return err
	}

	// meanReplica holds each sweep's mean replica time: replica_s_p50 is
	// its median, so the mixes and protocols of different speed in one
	// sweep never form a multimodal median.
	var sweepSecs, tracedSecs, replicaSecs, meanReplica []float64
	var busy, emit float64
	var allocBytes, tracedOps float64
	err = b.measure(func(i int, traced bool) error {
		b.attempted++
		var ms0, ms1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		rec, d, csv, err := sweep(traced)
		if traced {
			runtime.ReadMemStats(&ms1)
		}
		if err != nil {
			b.miss("sweep: %v", err)
			return nil
		}
		if !bytes.Equal(csv, ref) {
			b.miss("sweep %d: CSV differs from the first sweep's (%d vs %d bytes)", i, len(csv), len(ref))
			return nil
		}
		if traced {
			tracedSecs = append(tracedSecs, d.Seconds())
			allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			tracedOps += opsPerReplica * float64(plan.NumReplicas())
			busy += sum(rec.replicas)
			emit += rec.emit.Seconds()
			return nil
		}
		sweepSecs = append(sweepSecs, d.Seconds())
		replicaSecs = append(replicaSecs, rec.replicas...)
		meanReplica = append(meanReplica, sum(rec.replicas)/float64(len(rec.replicas)))
		return nil
	})
	if err != nil {
		return err
	}
	if len(sweepSecs) == 0 {
		return fmt.Errorf("no successful sweep")
	}
	replicas := float64(plan.NumReplicas())
	var rates []float64
	for _, s := range sweepSecs {
		rates = append(rates, replicas/s)
	}
	b.e2e["replicas_per_s"] = median(rates)
	b.e2e["sim_ops_per_s"] = median(rates) * opsPerReplica
	b.e2e["replica_s_p50"] = median(meanReplica)
	b.e2e["jobs_per_s"] = 1 / median(sweepSecs)
	b.e2e["job_ms_p50"] = median(sweepSecs) * 1e3
	rl, rv := tail(replicaSecs)
	b.note("setup_s %.4f (median of %d)", b.e2e["setup_s"], len(setups))
	b.note("sweeps: %d of %d replicas at %d workers; sweep_s p50 %.3f (n=%d)", len(sweepSecs), plan.NumReplicas(), b.workers, median(sweepSecs), len(sweepSecs))
	b.note("sweep_s in run order: %.3f", sweepSecs)
	b.note("replicas_per_s %.2f; replica_s_p50 %.4f (per sweep, mean over its replicas); all replicas p50 %.4f %s %.4f (n=%d)",
		b.e2e["replicas_per_s"], b.e2e["replica_s_p50"], median(replicaSecs), rl, rv, len(replicaSecs))
	if b.opt.trace {
		n := float64(len(tracedSecs))
		workers := float64(min(b.workers, plan.NumReplicas()))
		capacity := workers * sum(tracedSecs)
		tracedRate := replicas / median(tracedSecs)
		baseRate := median(rates)
		m := b.layer
		m["patch.replica_busy_frac"] = ratio(busy, capacity)
		m["patch.idle_s"] = (capacity - busy) / n
		m["patch.emit_s"] = emit / n
		m["sim.alloc_bytes_per_op"] = ratio(allocBytes, tracedOps)
		m["trace.overhead_frac"] = 1 - ratio(tracedRate, baseRate)
		m["trace.base_per_s"] = baseRate
		m["sim.reset_s"] = probeReset(b, plan)
		b.note("trace: %d traced sweeps; replicas_per_s traced %.2f vs untraced %.2f; busy %.3f, emit %.4f s/sweep",
			len(tracedSecs), tracedRate, baseRate, m["patch.replica_busy_frac"], m["patch.emit_s"])
	}
	return nil
}

// probeReset times sim.System.Reset after a completed run, the cost a
// pool worker pays between compatible replicas: for each protocol kind
// in the plan, run its first replica, then Reset to its second.
func probeReset(b *bench, plan *patch.ReplicaPlan) float64 {
	var resets []float64
	first := map[patch.Protocol]*sim.System{}
	for i := 0; i < plan.NumReplicas(); i++ {
		cfg := plan.ReplicaConfig(i).ToSim()
		s, ok := first[cfg.Protocol]
		if !ok {
			var err error
			if s, err = sim.NewSystem(cfg); err == nil {
				_, err = s.Run()
			}
			if err != nil {
				b.miss("reset probe: %v", err)
				return 0
			}
			first[cfg.Protocol] = s
			continue
		}
		if s == nil {
			continue
		}
		start := time.Now()
		err := s.Reset(cfg)
		resets = append(resets, time.Since(start).Seconds())
		s.Close()
		first[cfg.Protocol] = nil
		if err != nil {
			b.miss("reset probe: %v", err)
			return 0
		}
	}
	return median(resets)
}
