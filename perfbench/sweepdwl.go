package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"patch"
	"patch/service"
)

// sweepd-mixed load: closed-loop clients (never more than the host's
// CPUs) against an in-process server on a loopback listener. Every
// svcColdEvery-th job of a client is a fresh matrix the server must
// simulate; the rest repeat one of svcWarmPool matrices already in the
// result cache.
//
// The repository records no sweepd traffic, so the mix is set from a
// target rather than taken from use: cold jobs should fill about 40% of
// client time. Both paths then hold a large share of jobs_per_s, the
// cold one (simulate, write the cache) and the warm one (HTTP/JSON,
// fingerprint, cache hit, render), with warm hits still the larger, and
// a 25 s run holds some 30 cold jobs to take medians over. Under this
// load on a 2-CPU host (go1.24) a cold job took 0.69 s and a warm one
// 0.98 ms on average, so one cold job in 1000 gives
// 690 / (690 + 999 x 0.98) = 0.41 of client time. Every run reports
// the share it measured. The pool has two matrices per client, so the
// two clients read the same entry on one job in four, and the untimed
// fill costs only four cold jobs.
//
// The job store (spec plus journal files for every job) is on during
// the untimed fill and during set-up, which restores it; the server
// that takes the timed load runs without it. With it, on a 2-CPU host
// with an ext4 virtual disk, the disk set the warm path: warm p50 rose
// from 1.3 to 2.4 ms over ten back-to-back runs while the simulation
// rate held steady.
const (
	svcWarmPool  = 4
	svcRestored  = 8 // jobs per warm-pool matrix left in the store for set-up to restore
	svcColdEvery = 1000
	svcCores     = 16
	svcOps       = 100
	svcWarmup    = 100
)

// svcMatrix is a 12-replica matrix: two mixes x Directory, PATCH-All,
// TokenB x two seeds.
func svcMatrix(seed int64) patch.Matrix {
	return patch.Matrix{
		Base:      patch.Config{Cores: svcCores, OpsPerCore: svcOps, WarmupOps: svcWarmup, Seed: seed},
		Workloads: []string{"oltp", "jbb"},
		Protocols: []patch.ProtoVariant{{Protocol: patch.Directory}, {Protocol: patch.PATCH, Variant: patch.VariantAll}, {Protocol: patch.TokenB}},
		Seeds:     2,
	}
}

// localCSV runs m in-process, the reference a served CSV must equal.
func localCSV(m patch.Matrix, workers int) ([]byte, error) {
	var buf bytes.Buffer
	_, err := patch.Sweep(context.Background(), m, patch.Workers(workers), patch.EmitTo(&patch.CSVEmitter{W: &buf}))
	return buf.Bytes(), err
}

// svc is one running server: its result cache and, if durable, its job
// store under a data directory, behind a loopback listener.
type svc struct {
	cache  *service.ResultCache
	store  *service.JobStore
	srv    *service.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *service.Client
}

// startService opens the cache (and, if durable, the job store,
// restoring its jobs) in dir and serves on a fresh loopback port; it
// returns once /healthz answers.
func startService(dir string, clients int, durable bool) (*svc, error) {
	cache, err := service.NewResultCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	var store *service.JobStore
	if durable {
		if store, err = service.OpenJobStore(filepath.Join(dir, "store")); err != nil {
			return nil, err
		}
	}
	srv := service.New(service.Config{MaxJobs: clients, Workers: 1, Cache: cache, Store: store})
	if _, err := srv.Restore(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svc{cache: cache, store: store, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		tr: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	resp, err := s.client.HTTP.Get(s.client.Base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server's jobs, closes the listener and waits for the
// serving goroutine to exit.
func (s *svc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	s.tr.CloseIdleConnections()
	return err
}

// svcJob is one finished client job.
type svcJob struct {
	cold                     bool
	matrix                   patch.Matrix
	csv                      []byte
	replicas                 int
	total                    time.Duration
	submit, progress, result time.Duration
	gaps                     []float64 // seconds between replica events
	traced                   bool
	err                      error
}

// runJob submits m, follows its progress to the terminal event, fetches
// the CSV, then forgets the job (DELETE), as a polite client does.
func runJob(ctx context.Context, c *service.Client, tr *tracer, m patch.Matrix, traced bool) svcJob {
	j := svcJob{matrix: m, traced: traced}
	if !traced {
		tr = nil
	}
	run := tr.newRun()
	jobSpan := tr.begin(run, 0, "job")
	defer tr.end(jobSpan)
	start := time.Now()
	sp := tr.begin(run, jobSpan, "service.submit")
	st, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	tr.end(sp)
	submitted := time.Now()
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	sp = tr.begin(run, jobSpan, "service.progress")
	last := submitted
	var state service.State
	var msg string
	err = c.Progress(ctx, st.ID, func(ev service.ProgressEvent) bool {
		now := time.Now()
		if ev.State == "" {
			j.gaps = append(j.gaps, now.Sub(last).Seconds())
			last = now
		}
		state, msg = ev.State, ev.Error
		return !ev.State.Finished()
	})
	tr.end(sp)
	progressed := time.Now()
	if err == nil && state != service.StateDone {
		err = fmt.Errorf("job %s ended %q: %s", st.ID, state, msg)
	}
	if err != nil {
		j.err = fmt.Errorf("progress: %w", err)
		return j
	}
	var buf bytes.Buffer
	sp = tr.begin(run, jobSpan, "service.result")
	err = c.Result(ctx, st.ID, "csv", &buf)
	tr.end(sp)
	done := time.Now()
	if err != nil {
		j.err = fmt.Errorf("result: %w", err)
		return j
	}
	j.csv, j.replicas = buf.Bytes(), st.Total
	j.submit, j.progress, j.result, j.total = submitted.Sub(start), progressed.Sub(submitted), done.Sub(progressed), done.Sub(start)
	sp = tr.begin(run, jobSpan, "service.forget")
	if err := c.Cancel(ctx, st.ID); err != nil {
		j.err = fmt.Errorf("forget: %w", err)
	}
	tr.end(sp)
	return j
}

// runSweepd: the sweep service over loopback with a disk cache and a
// journal, driven by closed-loop clients.
func runSweepd(b *bench) error {
	dir := filepath.Join(b.opt.workdir, fmt.Sprintf("sweepd-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	clients := min(2, b.workers)
	ctx := context.Background()

	// Fill the cache with the warm pool (untimed), leaving svcRestored
	// finished jobs per matrix in the store for every set-up below to
	// restore, and compute the in-process references.
	pool := make([]patch.Matrix, svcWarmPool)
	refs := make([][]byte, svcWarmPool)
	s, err := startService(dir, clients, true)
	if err != nil {
		return err
	}
	for r := 0; r < svcRestored && err == nil; r++ {
		// The first round simulates, svcWarmPool jobs at a time; later
		// rounds are cache hits.
		var ids []string
		for k := range pool {
			pool[k] = svcMatrix(subSeed(b.opt.seed, 100+k))
			var st service.JobStatus
			if st, err = s.client.Submit(ctx, service.JobSpec{Matrix: pool[k]}); err != nil {
				break
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			if _, werr := s.client.Wait(ctx, id, 10*time.Millisecond); err == nil {
				err = werr
			}
		}
	}
	for k := range pool {
		if err == nil {
			refs[k], err = localCSV(pool[k], b.workers)
		}
	}
	if err != nil {
		_ = s.stop()
		return fmt.Errorf("warm pool: %w", err)
	}
	filled := s.store.Stats()
	if err := s.stop(); err != nil {
		return err
	}

	// Set-up: cache, store, Restore and listener up, repeated on the
	// filled directory.
	var setups []float64
	var restored service.StoreStats
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		start := time.Now()
		if s, err = startService(dir, clients, true); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		restored = s.store.Stats()
		if err := s.stop(); err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = median(setups)
	if s, err = startService(dir, clients, false); err != nil {
		return err
	}
	// Flush what earlier file activity (this run's prefill, an earlier
	// run's data directory removal) left for the disk, so the timed loop
	// starts from the same file-system state every time.
	syscall.Sync()
	cache0 := s.cache.Stats()

	// Closed loop: each client sends its next job when the last is done.
	var wg sync.WaitGroup
	perClient := make([][]svcJob, clients)
	end := time.Now().Add(time.Duration(b.opt.seconds) * time.Second)
	loopStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(subSeed(b.opt.seed, 200+c)))
			for i := 0; time.Now().Before(end); i++ {
				traced := b.opt.trace && i%2 == 1
				cold := (i+1)%svcColdEvery == 0
				var m patch.Matrix
				if cold {
					m = svcMatrix(subSeed(b.opt.seed, 10_000+c*1_000_000+i))
				} else {
					m = pool[rng.Intn(svcWarmPool)]
				}
				j := runJob(ctx, s.client, b.tr, m, traced)
				j.cold = cold
				if !cold && j.err == nil {
					j.matrix = patch.Matrix{}
					if k := indexOf(pool, m); !bytes.Equal(j.csv, refs[k]) {
						j.err = fmt.Errorf("warm matrix %d: served CSV differs from the in-process sweep", k)
					}
					j.csv = nil
				}
				perClient[c] = append(perClient[c], j)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(loopStart)
	cache1 := s.cache.Stats()
	diskBytes := cache1.DiskBytes
	if err := s.stop(); err != nil {
		return err
	}

	// Check every cold job against an in-process sweep of its matrix.
	// meanGaps holds each cold job's mean gap between replica events:
	// replica_s_p50 is its median, so the protocols of different speed
	// in one matrix never form a multimodal median.
	var warmMs, tracedWarmMs, coldS, gaps, meanGaps, coldRates []float64
	var submitMs, progressMs, resultMs []float64
	replicas := 0
	for _, jobs := range perClient {
		for _, j := range jobs {
			b.attempted++
			if j.err == nil && j.cold {
				if ref, err := localCSV(j.matrix, b.workers); err != nil || !bytes.Equal(ref, j.csv) {
					j.err = fmt.Errorf("cold matrix seed %d: served CSV differs from the in-process sweep (%v)", j.matrix.Base.Seed, err)
				}
			}
			if j.err != nil {
				b.miss("%v", j.err)
				continue
			}
			replicas += j.replicas
			switch {
			case j.cold:
				coldS = append(coldS, j.total.Seconds())
				gaps = append(gaps, j.gaps...)
				if len(j.gaps) > 0 {
					meanGaps = append(meanGaps, sum(j.gaps)/float64(len(j.gaps)))
				}
				coldRates = append(coldRates, float64(j.replicas*svcCores*(svcOps+svcWarmup))/j.total.Seconds())
			case j.traced:
				tracedWarmMs = append(tracedWarmMs, j.total.Seconds()*1e3)
				submitMs = append(submitMs, j.submit.Seconds()*1e3)
				progressMs = append(progressMs, j.progress.Seconds()*1e3)
				resultMs = append(resultMs, j.result.Seconds()*1e3)
			default:
				warmMs = append(warmMs, j.total.Seconds()*1e3)
			}
		}
	}
	if len(warmMs) == 0 || len(meanGaps) == 0 {
		return fmt.Errorf("too few jobs: %d warm, %d cold with replica events", len(warmMs), len(meanGaps))
	}
	jobs := len(warmMs) + len(tracedWarmMs) + len(coldS)
	b.e2e["sim_ops_per_s"] = median(coldRates)
	b.e2e["replicas_per_s"] = float64(replicas) / wall.Seconds()
	b.e2e["replica_s_p50"] = median(meanGaps)
	b.e2e["jobs_per_s"] = float64(jobs) / wall.Seconds()
	b.e2e["job_ms_p50"] = median(warmMs)
	wl, wv := tail(warmMs)
	cl, cv := tail(coldS)
	gl, gv := tail(gaps)
	b.note("setup_s %.4f (median of %d, restoring %d jobs)", b.e2e["setup_s"], len(setups), svcWarmPool*svcRestored)
	b.note("closed loop, %d clients, 1 server worker per job, %d jobs (%d cold) in %.1f s; jobs_per_s %.1f", clients, jobs, len(coldS), wall.Seconds(), b.e2e["jobs_per_s"])
	b.note("warm_job_ms_p50 %.3f warm_job_ms_%s %.3f (n=%d)", median(warmMs), wl, wv, len(warmMs))
	b.note("cold_job_s_p50 %.3f cold_job_s_%s %.3f (n=%d); replica_s_p50 %.4f (per cold job, mean gap); all gaps s p50 %.4f %s %.4f (n=%d)",
		median(coldS), cl, cv, len(coldS), b.e2e["replica_s_p50"], median(gaps), gl, gv, len(gaps))
	coldT, warmT := sum(coldS), sum(warmMs)/1e3+sum(tracedWarmMs)/1e3
	b.note("client time: cold jobs %.1f s (%.1f%%), warm jobs %.1f s (%.1f%%)", coldT, 100*coldT/(coldT+warmT), warmT, 100*warmT/(coldT+warmT))
	if b.opt.trace {
		m := b.layer
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		m["service.submit_ms_p50"] = median(submitMs)
		m["service.progress_ms_p50"] = median(progressMs)
		m["service.result_ms_p50"] = median(resultMs)
		m["service.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["service.cache_disk_bytes"] = float64(diskBytes)
		m["service.journal_records"] = float64(restored.Replayed)
		m["service.write_errors"] = float64(filled.WriteErrors)
		base := 1e3 / median(warmMs)
		m["trace.overhead_frac"] = 1 - ratio(1e3/median(tracedWarmMs), base)
		m["trace.base_per_s"] = base
		b.note("trace: %d traced warm jobs; warm jobs/s/client traced %.1f vs untraced %.1f", len(tracedWarmMs), 1e3/median(tracedWarmMs), base)
	}
	return nil
}

func indexOf(pool []patch.Matrix, m patch.Matrix) int {
	for k := range pool {
		if pool[k].Base.Seed == m.Base.Seed {
			return k
		}
	}
	return -1
}
