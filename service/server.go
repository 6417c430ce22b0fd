package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"patch"
)

// ErrDraining is returned for submissions that arrive after Drain has
// begun; the HTTP layer maps it to 503.
var ErrDraining = errors.New("service: server is draining")

// ErrQuota is returned when a principal already has MaxJobsPerUser
// unfinished jobs; the HTTP layer maps it to 429.
var ErrQuota = errors.New("service: per-user job quota exceeded")

// Config parameterizes a Server.
type Config struct {
	// MaxJobs bounds concurrently running jobs; excess submissions
	// queue per principal and are admitted round-robin. <=0 selects 2.
	MaxJobs int
	// Workers is the default local pool size per job (JobSpec.Workers
	// overrides per job). <=0 selects GOMAXPROCS.
	Workers int
	// Cache is the shared result cache; nil gets a fresh memory-only
	// cache.
	Cache *ResultCache
	// Lease bounds how long a remote worker may sit on a claimed
	// replica without heartbeating before it becomes claimable again.
	// <=0 selects 2m. Workers heartbeat at a fraction of the lease
	// (the claim response carries it), so the exact value is no longer
	// a per-deployment tuning knob — it only bounds how long a dead
	// worker's claims stay stuck.
	Lease time.Duration
	// Store persists job specs and completed replicas so a restarted
	// server resumes unfinished jobs (call Restore after New). nil
	// keeps jobs in memory only.
	Store *JobStore
	// Token, when non-empty, requires "Authorization: Bearer <Token>"
	// on the mutating endpoints: submit, claim, results, heartbeat,
	// and delete. Reads (status, progress, result, healthz) stay open.
	Token string
	// MaxJobsPerUser bounds unfinished (queued + running) jobs per
	// principal; excess submissions fail with ErrQuota. <=0 means
	// unlimited.
	MaxJobsPerUser int
	// Now is the clock used for leases; nil selects time.Now. Tests
	// inject a fake to drive lease expiry without sleeping.
	Now func() time.Time
}

// Server is the sweep-as-a-service farm: a job store plus the HTTP API
// over it. It is an http.Handler; mount it on any listener.
//
//	POST   /jobs                  submit a JobSpec        -> 201 JobStatus
//	GET    /jobs                  list                    -> 200 []JobStatus
//	GET    /jobs/{id}             status                  -> 200 JobStatus
//	DELETE /jobs/{id}             cancel (or forget)      -> 200 JobStatus
//	GET    /jobs/{id}/progress    replica progress stream -> 200 NDJSON
//	GET    /jobs/{id}/result      emitter output          -> 200 ?format=csv|json|...
//	POST   /claim                 worker claims replicas  -> 200 ClaimBatch | 204
//	POST   /jobs/{id}/results     worker posts results    -> 200 {"accepted":n}
//	POST   /jobs/{id}/heartbeat   worker extends leases   -> 200 {"extended":n}
//	GET    /healthz               liveness + counters     -> 200
//
// Submissions carry their principal in the X-Sweep-Principal header
// (empty: "anonymous"); when Config.Token is set, mutating endpoints
// additionally require the bearer token.
type Server struct {
	cfg   Config
	cache *ResultCache
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order, for /claim scans and listing
	queues   map[string][]*job // admitted but waiting, FIFO per principal
	rotation []string          // principals with queued jobs, round-robin order
	running  int
	draining bool
	idSeq    int

	wg sync.WaitGroup // one per running job goroutine
}

// New builds a Server. With a durable store configured, call Restore
// before serving traffic to reload persisted jobs.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Minute
	}
	if cfg.Cache == nil {
		cfg.Cache, _ = NewResultCache("")
	}
	s := &Server{
		cfg:    cfg,
		cache:  cfg.Cache,
		jobs:   make(map[string]*job),
		queues: make(map[string][]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /claim", s.handleClaim)
	mux.HandleFunc("POST /jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /jobs/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// Restore reloads every persisted job from the configured store:
// finished jobs become listable and downloadable again, unfinished
// ones re-enter admission and resume from their last journaled
// replica. Determinism makes the resumed output byte-identical to an
// uninterrupted run. Call once, after New and before serving traffic;
// without a store it is a no-op.
func (s *Server) Restore() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	recs, err := s.cfg.Store.Load()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, rec := range recs {
		j, err := newJob(rec.ID, rec.Spec)
		if err != nil {
			// The spec no longer expands (e.g. a named transform this
			// build doesn't register). Skip it rather than refuse to
			// start; the directory stays on disk for inspection.
			continue
		}
		j.principal = rec.Principal
		j.restore(rec.Results)
		if rec.Terminal == StateFailed || rec.Terminal == StateCancelled {
			j.mu.Lock()
			if !j.state.Finished() {
				var terr error
				if rec.TerminalError != "" {
					terr = errors.New(rec.TerminalError)
				}
				j.finishLocked(rec.Terminal, terr)
			}
			j.mu.Unlock()
		}
		s.mu.Lock()
		s.attachPersistenceLocked(j)
		if rec.Seq > s.idSeq {
			s.idSeq = rec.Seq
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		if !j.status().State.Finished() {
			s.admitLocked(j)
		}
		s.mu.Unlock()
		restored++
	}
	return restored, nil
}

// attachPersistenceLocked wires a job's completions and terminal
// transitions through to the store. Journal append failures are
// recorded in store stats but do not fail the job: the worst case is
// a re-run after a restart, never a wrong result.
func (s *Server) attachPersistenceLocked(j *job) {
	store, id := s.cfg.Store, j.id
	j.persist = func(i int, r *patch.Result) { _ = store.AppendResult(id, i, r) }
	j.persistTerminal = func(state State, msg string) { _ = store.SaveTerminal(id, state, msg) }
}

// Submit admits a job under the anonymous principal. Also the
// programmatic entry point used by tests and embedders.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitAs("", spec)
}

// SubmitAs admits a job for principal ("" = "anonymous"): it starts
// immediately when a running slot is free, otherwise queues behind the
// principal's earlier jobs — queued principals are admitted
// round-robin, so one user's backlog cannot starve another's first
// job. With a store configured the spec is persisted before the
// submission is acknowledged.
func (s *Server) SubmitAs(principal string, spec JobSpec) (JobStatus, error) {
	if principal == "" {
		principal = "anonymous"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if s.cfg.MaxJobsPerUser > 0 && s.liveJobsLocked(principal) >= s.cfg.MaxJobsPerUser {
		return JobStatus{}, fmt.Errorf("%w: %q has %d unfinished jobs",
			ErrQuota, principal, s.cfg.MaxJobsPerUser)
	}
	seq := s.idSeq + 1
	id := fmt.Sprintf("job-%d", seq)
	j, err := newJob(id, spec)
	if err != nil {
		return JobStatus{}, err
	}
	j.principal = principal
	if s.cfg.Store != nil {
		if err := s.cfg.Store.SaveSpec(id, seq, principal, spec); err != nil {
			return JobStatus{}, err
		}
		s.attachPersistenceLocked(j)
	}
	s.idSeq = seq
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.admitLocked(j)
	return j.status(), nil
}

// liveJobsLocked counts principal's unfinished jobs. Called with mu
// held.
func (s *Server) liveJobsLocked(principal string) int {
	n := 0
	for _, j := range s.jobs {
		if j.principal == principal && !j.status().State.Finished() {
			n++
		}
	}
	return n
}

// admitLocked starts j if a running slot is free, else queues it
// behind its principal. Called with mu held.
func (s *Server) admitLocked(j *job) {
	if s.running < s.cfg.MaxJobs {
		s.startLocked(j)
		return
	}
	p := j.principal
	if _, queued := s.queues[p]; !queued {
		s.rotation = append(s.rotation, p)
	}
	s.queues[p] = append(s.queues[p], j)
}

// nextQueuedLocked pops the next job fair-share: the head of the next
// principal's FIFO in rotation order, with that principal moving to
// the back of the rotation. Called with mu held.
func (s *Server) nextQueuedLocked() *job {
	for len(s.rotation) > 0 {
		p := s.rotation[0]
		q := s.queues[p]
		if len(q) == 0 {
			delete(s.queues, p)
			s.rotation = s.rotation[1:]
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(s.queues, p)
			s.rotation = s.rotation[1:]
		} else {
			s.queues[p] = q[1:]
			s.rotation = append(s.rotation[1:], p)
		}
		return j
	}
	return nil
}

// dequeueLocked removes j from its principal's queue (cancellation of
// a queued job). Called with mu held.
func (s *Server) dequeueLocked(j *job) {
	q := s.queues[j.principal]
	for i, qj := range q {
		if qj == j {
			s.queues[j.principal] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// startLocked moves j to running and launches its driver goroutine.
// Called with mu held.
func (s *Server) startLocked(j *job) {
	s.running++
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.mu.Unlock()
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob drives one job to a terminal state: cache prefill, then the
// local pool (unless remote-only), then waiting out any remote claims,
// and finally handing the slot to the next queued job (fair-share).
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	j.prefill(s.cache)
	if !j.spec.RemoteOnly {
		workers := j.spec.Workers
		if workers <= 0 {
			workers = s.cfg.Workers
		}
		err := j.queue.Drain(j.ctx, workers, nil, func(i int, r *patch.Result) error {
			s.cache.Put(j.queue.ReplicaConfig(i).Fingerprint(), r)
			j.accept(i, r, false)
			return nil
		})
		if err != nil {
			j.fail(fmt.Errorf("service: job %s: %w", j.id, err))
		}
	}
	// Local work is exhausted (or skipped); remaining replicas belong
	// to remote workers. finished closes on done/failed/cancelled.
	<-j.finished
	s.mu.Lock()
	s.running--
	for s.running < s.cfg.MaxJobs {
		next := s.nextQueuedLocked()
		if next == nil {
			break
		}
		s.startLocked(next)
	}
	s.mu.Unlock()
}

// Drain stops admission and waits for every running and queued job to
// finish, or for ctx to expire — at which point the stragglers are
// cancelled. Queued jobs still run: drain is graceful, not abortive.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancelJob()
		}
		s.queues = make(map[string][]*job)
		s.rotation = nil
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// authorize gates the mutating endpoints behind the bearer token, when
// one is configured. It writes the 401 itself; callers just return on
// false.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(auth, prefix) &&
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.Token)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="sweepd"`)
	httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	st, err := s.SubmitAs(r.Header.Get("X-Sweep-Principal"), spec)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQuota):
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		w.Header().Set("Location", "/jobs/"+st.ID)
		writeJSON(w, http.StatusCreated, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleDelete cancels a live job; deleting an already-finished job
// forgets it (drops it from the store, including the durable one).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	if st.State.Finished() {
		s.mu.Lock()
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Delete(id)
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mu.Lock()
	s.dequeueLocked(j)
	s.mu.Unlock()
	j.cancelJob()
	writeJSON(w, http.StatusOK, j.status())
}

// handleProgress streams replica-granular ProgressEvent lines as
// NDJSON until the job reaches a terminal state or the client leaves.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ch, unsubscribe := j.subscribe()
	defer unsubscribe()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	name := r.URL.Query().Get("format")
	if name == "" {
		name = "csv"
	}
	f, ok := formats[name]
	if !ok {
		httpError(w, http.StatusBadRequest, "%v", unknownFormat(name))
		return
	}
	if st := j.status(); st.State != StateDone {
		httpError(w, http.StatusConflict, "job is %s, not done", st.State)
		return
	}
	// Replay the finished cells through a fresh emitter: byte-identical
	// to a local Sweep of the same matrix with that emitter.
	w.Header().Set("Content-Type", f.contentType)
	w.WriteHeader(http.StatusOK)
	cells := j.queue.Cells()
	e := f.make(w)
	if e.Begin(len(cells)) != nil {
		return
	}
	for _, c := range cells {
		if e.Cell(c) != nil {
			return
		}
	}
	_ = e.End()
}

// handleClaim hands a worker up to max replicas from the oldest
// running job with claimable work. 204 means nothing is claimable
// right now — the worker should poll again, not exit: work reappears
// when a job starts or a lease expires.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	var req struct {
		Max int `json:"max"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad claim request: %v", err)
		return
	}
	if req.Max <= 0 {
		req.Max = 1
	}
	s.mu.Lock()
	ordered := append([]string(nil), s.order...)
	s.mu.Unlock()
	now := s.now()
	for _, id := range ordered {
		j, ok := s.job(id)
		if !ok {
			continue
		}
		var claims []ReplicaClaim
		j.whileRunning(func() {
			for _, i := range j.queue.Claim(req.Max, s.cfg.Lease, now) {
				claims = append(claims, ReplicaClaim{Index: i, Config: j.queue.ReplicaConfig(i)})
			}
		})
		if len(claims) > 0 {
			writeJSON(w, http.StatusOK, ClaimBatch{
				Job: id, Replicas: claims,
				LeaseMillis: s.cfg.Lease.Milliseconds(),
			})
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResults accepts completed replicas from a worker. Results are
// written through to the shared cache under the server-computed
// fingerprint, so a remote replica warms the cache exactly like a
// local one.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	var batch []ReplicaResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&batch); err != nil {
		httpError(w, http.StatusBadRequest, "bad results: %v", err)
		return
	}
	accepted := 0
	for _, rr := range batch {
		if rr.Result == nil || rr.Index < 0 || rr.Index >= j.queue.NumReplicas() {
			continue
		}
		s.cache.Put(j.queue.ReplicaConfig(rr.Index).Fingerprint(), rr.Result)
		if j.accept(rr.Index, rr.Result, false) {
			accepted++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// handleHeartbeat extends the leases of a worker's claimed replicas,
// so a healthy worker keeps its claims however long a replica takes,
// while a dead worker's claims return to the pool after one lease.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	var req struct {
		Indices []int `json:"indices"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	extended := 0
	j.whileRunning(func() { extended = j.queue.Heartbeat(req.Indices, s.cfg.Lease, s.now()) })
	writeJSON(w, http.StatusOK, map[string]int{"extended": extended})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, running, draining := len(s.jobs), s.running, s.draining
	queued := 0
	for _, q := range s.queues {
		queued += len(q)
	}
	s.mu.Unlock()
	body := map[string]any{
		"jobs":     n,
		"running":  running,
		"queued":   queued,
		"draining": draining,
		"auth":     s.cfg.Token != "",
		"cache":    s.cache.Stats(),
	}
	if s.cfg.Store != nil {
		body["store"] = s.cfg.Store.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
