package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"patch"
	"patch/service"
)

// smokeMatrix is the shared end-to-end workload: 2 cells x 2 seeds of
// real (small) simulations, so byte-identity checks exercise the full
// simulate-summarise-emit pipeline.
func smokeMatrix() patch.Matrix {
	return patch.Matrix{
		Base: patch.Config{
			Cores: 8, Workload: "micro", OpsPerCore: 60, WarmupOps: 40,
			Seed: 1, SkipChecks: true,
		},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory},
			{Protocol: patch.PATCH, Variant: patch.VariantAll},
		},
		Seeds: 2,
	}
}

// localCSV is the reference output: the same matrix through an
// in-process Sweep with a CSV emitter. Every served download must be
// byte-identical to this.
func localCSV(t *testing.T, m patch.Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := patch.Sweep(context.Background(), m, patch.EmitTo(&patch.CSVEmitter{W: &buf})); err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	return buf.Bytes()
}

func runJob(t *testing.T, c *service.Client, spec service.JobSpec) service.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

// fakeClock is the injected time source for lease and eviction tests:
// expiry is driven by Advance, never by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func download(t *testing.T, c *service.Client, id, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Result(context.Background(), id, format, &buf); err != nil {
		t.Fatalf("download %s: %v", format, err)
	}
	return buf.Bytes()
}

// TestServedSweepMatchesLocal is the acceptance gate: the CSV served
// by the farm is byte-identical to a local Sweep of the same matrix in
// all three modes — cold cache, warm cache (including across a server
// restart on the same disk cache), and remote-worker execution.
func TestServedSweepMatchesLocal(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()
	ctx := context.Background()

	cache1, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(service.New(service.Config{Workers: 2, Cache: cache1}))
	defer ts1.Close()
	c1 := &service.Client{Base: ts1.URL}

	// Cold cache: every replica is simulated.
	st := runJob(t, c1, service.JobSpec{Matrix: m})
	if st.CacheHits != 0 {
		t.Errorf("cold run reported %d cache hits", st.CacheHits)
	}
	if got := download(t, c1, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("cold served CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}

	// Warm cache, same server: every replica is a hit.
	st = runJob(t, c1, service.JobSpec{Matrix: m})
	if st.CacheHits != st.Total {
		t.Errorf("warm run: %d/%d cache hits", st.CacheHits, st.Total)
	}
	if got := download(t, c1, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("warm served CSV differs from local sweep")
	}

	// Server restart: a fresh process-equivalent on the same cache
	// directory must hit on every replica via the disk layer.
	cache2, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(service.New(service.Config{Workers: 2, Cache: cache2}))
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st = runJob(t, c2, service.JobSpec{Matrix: m})
	if st.CacheHits != st.Total {
		t.Errorf("post-restart run: %d/%d cache hits", st.CacheHits, st.Total)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("post-restart served CSV differs from local sweep")
	}

	// Remote workers: a remote-only job on a cold server, executed by
	// two workers over the claim/post API, merges position-indexed to
	// the same bytes.
	ts3 := httptest.NewServer(service.New(service.Config{}))
	defer ts3.Close()
	c3 := &service.Client{Base: ts3.URL}
	st, err = c3.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = service.RunWorker(wctx, c3, service.WorkerConfig{Batch: 1})
		}()
	}
	st, err = c3.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("remote wait: %v", err)
	}
	wcancel()
	wg.Wait()
	if got := download(t, c3, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("remote-worker served CSV differs from local sweep")
	}

	// Other formats stay consistent with their local emitters too.
	var wantJSON bytes.Buffer
	if _, err := patch.Sweep(ctx, m, patch.EmitTo(&patch.JSONEmitter{W: &wantJSON})); err != nil {
		t.Fatal(err)
	}
	if got := download(t, c2, st2ID(t, c2, m), "json"); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("served JSON differs from local sweep")
	}
}

// st2ID runs (or re-runs, fully cached) the matrix and returns a done
// job id on the given server.
func st2ID(t *testing.T, c *service.Client, m patch.Matrix) string {
	t.Helper()
	return runJob(t, c, service.JobSpec{Matrix: m}).ID
}

// TestCacheDiskLayer covers the cache contract directly: write-through
// persistence, and checksum rejection of truncated and poisoned
// entries (each evicted and counted, never served).
func TestCacheDiskLayer(t *testing.T) {
	dir := t.TempDir()
	c1, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	want := &patch.Result{Cycles: 12345, Misses: 67, BytesPerMiss: 8.5, AvgMissLatency: 21.25}
	c1.Put(key, want)
	if got, ok := c1.Get(key); !ok || got != want {
		t.Fatalf("memory get = %v, %v", got, ok)
	}

	// A fresh cache on the same directory loads from disk.
	c2, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk get = %+v, %v; want %+v", got, ok, want)
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Bad != 0 {
		t.Errorf("stats after disk hit: %+v", s)
	}

	entry := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated entry: checksum fails, entry evicted, miss reported.
	if err := os.WriteFile(entry, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, _ := service.NewResultCache(dir)
	if _, ok := c3.Get(key); ok {
		t.Fatal("truncated entry served")
	}
	if s := c3.Stats(); s.Bad != 1 || s.Misses != 1 {
		t.Errorf("stats after truncated entry: %+v", s)
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Errorf("truncated entry not evicted: %v", err)
	}

	// Poisoned entry: one flipped payload byte fails the checksum.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-2] ^= 0x40
	if err := os.WriteFile(entry, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	c4, _ := service.NewResultCache(dir)
	if _, ok := c4.Get(key); ok {
		t.Fatal("poisoned entry served")
	}
	if s := c4.Stats(); s.Bad != 1 {
		t.Errorf("stats after poisoned entry: %+v", s)
	}

	// After eviction the key is a plain (non-bad) miss and can be
	// re-stored.
	if _, ok := c4.Get(key); ok {
		t.Fatal("evicted key served")
	}
	c4.Put(key, want)
	c5, _ := service.NewResultCache(dir)
	if got, ok := c5.Get(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("re-stored entry: %+v, %v", got, ok)
	}
}

// TestPoisonedEntryRecomputed is the service-level version: a
// corrupted disk entry under a real job is detected, recomputed by the
// simulator, and the served output stays byte-identical.
func TestPoisonedEntryRecomputed(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()

	cache1, _ := service.NewResultCache(dir)
	ts1 := httptest.NewServer(service.New(service.Config{Cache: cache1}))
	c1 := &service.Client{Base: ts1.URL}
	st := runJob(t, c1, service.JobSpec{Matrix: m})
	ts1.Close()

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != st.Total {
		t.Fatalf("cache holds %d entries (err %v), want %d", len(entries), err, st.Total)
	}
	// Truncate one entry, bit-flip another.
	raw, _ := os.ReadFile(entries[0])
	if err := os.WriteFile(entries[0], raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(entries[1])
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(entries[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cache2, _ := service.NewResultCache(dir)
	ts2 := httptest.NewServer(service.New(service.Config{Cache: cache2}))
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st = runJob(t, c2, service.JobSpec{Matrix: m})
	if want := st.Total - 2; st.CacheHits != want {
		t.Errorf("job saw %d cache hits, want %d (two corrupted entries)", st.CacheHits, want)
	}
	if s := cache2.Stats(); s.Bad != 2 {
		t.Errorf("cache counted %d bad entries, want 2", s.Bad)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("served CSV after recompute differs from local sweep")
	}
}

// TestAdmissionLeaseAndIdempotency drives the remote protocol by hand:
// queued admission beyond MaxJobs, lease expiry (under an injected
// clock — no sleeps) making a claimed replica claimable again, and
// duplicate result posts being dropped.
func TestAdmissionLeaseAndIdempotency(t *testing.T) {
	m := smokeMatrix()
	clk := newFakeClock()
	srv := service.New(service.Config{MaxJobs: 1, Lease: 30 * time.Minute, Now: clk.Now})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	// Job A occupies the single slot and, being remote-only, stays
	// running until workers feed it.
	stA, err := c.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != service.StateRunning {
		t.Fatalf("job A state = %s", stA.State)
	}
	// Job B queues behind it.
	stB, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != service.StateQueued {
		t.Fatalf("job B state = %s, want queued", stB.State)
	}

	// Claim one replica; while its lease is live a full claim gets
	// everything but it.
	first, ok, err := c.Claim(ctx, 1)
	if err != nil || !ok || len(first.Replicas) != 1 {
		t.Fatalf("first claim: %+v, %v, %v", first, ok, err)
	}
	if first.LeaseMillis != (30 * time.Minute).Milliseconds() {
		t.Errorf("claim lease_ms = %d", first.LeaseMillis)
	}
	rest, ok, err := c.Claim(ctx, stA.Total)
	if err != nil || !ok || len(rest.Replicas) != stA.Total-1 {
		t.Fatalf("mid-lease claim got %d replicas, want %d (err %v)", len(rest.Replicas), stA.Total-1, err)
	}

	// Heartbeat only the first claim while two lease periods elapse:
	// the un-heartbeaten claims expire and are re-issued, but the
	// heartbeaten replica is still held.
	for i := 0; i < 2; i++ {
		clk.Advance(20 * time.Minute)
		ext, err := c.Heartbeat(ctx, first.Job, []int{first.Replicas[0].Index})
		if err != nil || ext != 1 {
			t.Fatalf("heartbeat round %d: extended %d, err %v", i, ext, err)
		}
	}
	lapsed, ok, err := c.Claim(ctx, stA.Total)
	if err != nil || !ok || len(lapsed.Replicas) != stA.Total-1 {
		t.Fatalf("post-expiry claim got %d replicas, want %d (err %v)", len(lapsed.Replicas), stA.Total-1, err)
	}
	for _, cl := range lapsed.Replicas {
		if cl.Index == first.Replicas[0].Index {
			t.Fatalf("heartbeaten replica %d was re-issued", cl.Index)
		}
	}

	// Stop heartbeating and let every lease lapse: all replicas are
	// re-issued.
	clk.Advance(31 * time.Minute)
	full, ok, err := c.Claim(ctx, stA.Total)
	if err != nil || !ok || len(full.Replicas) != stA.Total {
		t.Fatalf("post-lease claim got %d replicas, want %d (err %v)", len(full.Replicas), stA.Total, err)
	}

	// Run all claimed replicas and post them; then re-post the first
	// replica's result — the duplicate must be dropped.
	runner := patch.NewRunner()
	defer runner.Close()
	results := make([]service.ReplicaResult, 0, len(full.Replicas))
	for _, cl := range full.Replicas {
		r, err := runner.RunReplica(cl.Config)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, service.ReplicaResult{Index: cl.Index, Result: r})
	}
	if err := c.PostResults(ctx, full.Job, results); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	body, _ := json.Marshal(results[:1])
	resp, err = http.Post(ts.URL+"/jobs/"+full.Job+"/results", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dup struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dup.Accepted != 0 {
		t.Errorf("duplicate post accepted %d results, want 0", dup.Accepted)
	}

	// A is now done, which frees the slot: B runs locally to done.
	if st, err := c.Wait(ctx, stA.ID, 5*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job A: %+v, %v", st, err)
	}
	if st, err := c.Wait(ctx, stB.ID, 5*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job B: %+v, %v", st, err)
	}
}

// TestProgressStreamAndCancel checks the NDJSON stream shape
// (snapshot, one event per replica with monotone counts, terminal
// state) and that cancellation terminates both the job and its stream.
func TestProgressStreamAndCancel(t *testing.T) {
	m := smokeMatrix()
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		events []service.ProgressEvent
	)
	firstEvent := make(chan struct{})
	var once sync.Once
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Progress(ctx, st.ID, func(ev service.ProgressEvent) bool {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			once.Do(func() { close(firstEvent) })
			return true
		})
	}()
	<-firstEvent // subscription live before any replica completes

	if err := service.RunWorker(ctx, c, service.WorkerConfig{Batch: 1, OneShot: true}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("progress stream: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != st.Total+2 {
		t.Fatalf("got %d events, want %d (snapshot + replicas + terminal): %+v", len(events), st.Total+2, events)
	}
	if events[0].State != service.StateRunning || events[0].Done != 0 {
		t.Errorf("snapshot event = %+v", events[0])
	}
	for i := 1; i <= st.Total; i++ {
		ev := events[i]
		if ev.Done != i || ev.Total != st.Total || ev.Label == "" {
			t.Errorf("replica event %d = %+v", i, ev)
		}
	}
	last := events[len(events)-1]
	if last.State != service.StateDone || last.Done != st.Total {
		t.Errorf("terminal event = %+v", last)
	}

	// Cancellation: a remote-only job on a fresh (cold-cache) server —
	// so nothing completes it — is deleted mid-flight; its stream ends
	// with a cancelled terminal event and downloads are refused.
	ts2 := httptest.NewServer(service.New(service.Config{}))
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st2, err := c2.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var last2 service.ProgressEvent
	stream2 := make(chan error, 1)
	started := make(chan struct{})
	var once2 sync.Once
	go func() {
		stream2 <- c2.Progress(ctx, st2.ID, func(ev service.ProgressEvent) bool {
			last2 = ev
			once2.Do(func() { close(started) })
			return true
		})
	}()
	<-started
	if err := c2.Cancel(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-stream2; err != nil {
		t.Fatal(err)
	}
	if last2.State != service.StateCancelled {
		t.Errorf("terminal event after cancel = %+v", last2)
	}
	var sink bytes.Buffer
	if err := c2.Result(ctx, st2.ID, "csv", &sink); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("download of cancelled job: %v", err)
	}
}

// TestDrain: draining stops admission (HTTP 503, typed error
// programmatically) but lets queued and running jobs finish.
func TestDrain(t *testing.T) {
	m := smokeMatrix()
	srv := service.New(service.Config{MaxJobs: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	stA, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := c.Submit(ctx, service.JobSpec{Matrix: m}) // queues
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := c.Status(ctx, id)
		if err != nil || st.State != service.StateDone {
			t.Errorf("after drain, job %s = %+v, %v", id, st, err)
		}
	}

	if _, err := srv.Submit(service.JobSpec{Matrix: m}); err != service.ErrDraining {
		t.Errorf("submit while draining: %v", err)
	}
	body, _ := json.Marshal(service.JobSpec{Matrix: m})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("HTTP submit while draining: %s", resp.Status)
	}
}

// TestBadRequests: the HTTP layer rejects malformed and unknown input
// with the right statuses.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`{"matrix":{"base":{"cores":8,"workload":"micro","ops_per_core":10,"skip_checks":true},"adjust":"no-such"}}`); code != http.StatusBadRequest {
		t.Errorf("unknown adjust name: %d", code)
	}
	// A filter that excludes every cell leaves an empty matrix.
	if code := post(`{"matrix":{"base":{"cores":8,"workload":"micro","ops_per_core":10,"skip_checks":true,"directory_coarseness":16},"filter":"coarseness<=cores"}}`); code != http.StatusBadRequest {
		t.Errorf("empty matrix: %d", code)
	}

	if _, err := c.Status(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job status: %v", err)
	}

	st := runJob(t, c, service.JobSpec{Matrix: smokeMatrix()})
	var sink bytes.Buffer
	if err := c.Result(ctx, st.ID, "no-such-format", &sink); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("unknown format: %v", err)
	}
}

// TestProgressParityWithSweep: the local pool behind a sweepd job is
// the same driver as Sweep, so a one-worker, cold-cache job streams
// exactly the progress sequence a Workers(1) Sweep reports through
// OnProgress (the stream's snapshot and terminal lines aside).
func TestProgressParityWithSweep(t *testing.T) {
	m := smokeMatrix()
	var want []patch.Progress
	if _, err := patch.Sweep(context.Background(), m, patch.Workers(1),
		patch.OnProgress(func(p patch.Progress) { want = append(want, p) })); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(service.New(service.Config{MaxJobs: 1}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()
	// A remote-only blocker holds the only slot, so the job under test
	// stays queued until its stream is subscribed.
	blocker, err := c.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, service.JobSpec{Matrix: m, Workers: 1})
	if err != nil || st.State != service.StateQueued {
		t.Fatalf("submit: %+v, %v", st, err)
	}
	var events []service.ProgressEvent
	subscribed := make(chan struct{})
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Progress(ctx, st.ID, func(ev service.ProgressEvent) bool {
			if len(events) == 0 {
				close(subscribed)
			}
			events = append(events, ev)
			return true
		})
	}()
	<-subscribed
	if err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want)+2 || events[len(events)-1].State != service.StateDone {
		t.Fatalf("got %d events, want snapshot + %d replicas + done: %+v", len(events), len(want), events)
	}
	var got []patch.Progress
	for _, ev := range events[1 : len(events)-1] {
		if ev.State != "" || ev.Error != "" {
			t.Fatalf("replica event carries state: %+v", ev)
		}
		got = append(got, ev.Progress)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served progress differs from Sweep's:\n got: %+v\nwant: %+v", got, want)
	}
}
