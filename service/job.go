package service

import (
	"context"
	"sync"

	"patch"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted but waiting for a concurrent-job slot.
	StateQueued State = "queued"
	// StateRunning: replicas are being claimed and executed.
	StateRunning State = "running"
	// StateDone: every replica completed; results are downloadable.
	StateDone State = "done"
	// StateFailed: a replica errored; the rest were cancelled.
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client or server shutdown.
	StateCancelled State = "cancelled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the POST /jobs request body: a wire-encodable Matrix plus
// execution knobs.
type JobSpec struct {
	Matrix patch.Matrix `json:"matrix"`

	// RemoteOnly leaves every replica for remote workers; the server
	// runs no local pool for this job (cache hits still fill
	// instantly).
	RemoteOnly bool `json:"remote_only,omitempty"`

	// Workers bounds the server-local pool for this job; 0 selects the
	// server default.
	Workers int `json:"workers,omitempty"`
}

// JobStatus is the GET /jobs/{id} response.
type JobStatus struct {
	ID string `json:"id"`
	// Principal is the submitting identity (quota and fair-share
	// accounting); empty submissions are pooled under "anonymous".
	Principal string `json:"principal,omitempty"`
	State     State  `json:"state"`
	// Done of Total counts completed replicas; Cells is the matrix
	// cell count.
	Done  int `json:"done"`
	Total int `json:"total"`
	Cells int `json:"cells"`
	// CacheHits counts replicas served from the result cache instead
	// of the simulator.
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
}

// ProgressEvent is one NDJSON line of GET /jobs/{id}/progress: a
// replica-granular patch.Progress, with State set on the first
// (snapshot) and last (terminal) lines of the stream.
type ProgressEvent struct {
	patch.Progress
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// ReplicaClaim hands one replica to a worker: its stable index in the
// job's work-list and its fully expanded configuration.
type ReplicaClaim struct {
	Index  int          `json:"index"`
	Config patch.Config `json:"config"`
}

// ClaimBatch is the POST /claim response: a range of replicas of one
// job, plus the lease the claims were issued under so the worker can
// heartbeat well inside it.
type ClaimBatch struct {
	Job      string         `json:"job"`
	Replicas []ReplicaClaim `json:"replicas"`
	// LeaseMillis is how long the claims stay held without a
	// heartbeat; 0 means held until completion.
	LeaseMillis int64 `json:"lease_ms,omitempty"`
}

// ReplicaResult is one element of the POST /jobs/{id}/results body.
type ReplicaResult struct {
	Index  int           `json:"index"`
	Result *patch.Result `json:"result"`
}

// job is one submitted sweep: its replica queue (shared by the local
// pool and remote claims) plus what only the service adds — the state
// machine, journaling, cache-hit accounting, and the progress fan-out.
type job struct {
	id        string
	principal string
	spec      JobSpec
	queue     *patch.ReplicaQueue

	ctx    context.Context
	cancel context.CancelFunc

	// persist journals one accepted completion; persistTerminal
	// records a failed/cancelled marker. Both are nil without a store
	// (and during restore replay, whose records are already on disk);
	// they run under mu, so the journal order matches the completion
	// order the job observed.
	persist         func(index int, r *patch.Result)
	persistTerminal func(s State, errMsg string)

	mu        sync.Mutex
	state     State
	err       error
	cacheHits int
	subs      map[chan ProgressEvent]struct{}
	finished  chan struct{}
}

func newJob(id string, spec JobSpec) (*job, error) {
	q, err := patch.NewReplicaQueue(spec.Matrix)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:       id,
		spec:     spec,
		queue:    q,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		subs:     make(map[chan ProgressEvent]struct{}),
		finished: make(chan struct{}),
	}, nil
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.queue.Counts()
	st := JobStatus{
		ID: j.id, Principal: j.principal, State: j.state,
		Done: c.Done, Total: c.Total, Cells: c.Cells,
		CacheHits: j.cacheHits,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// whileRunning calls f with mu held if the job is running: remote
// claims and heartbeats only touch a running job's queue.
func (j *job) whileRunning(f func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning {
		f()
	}
}

// accept records replica i's result in the queue and, if the queue
// takes it, journals it, fans out its progress event and, on the last
// replica, finishes the job. It reports false when the result was
// dropped: a duplicate, out of range, or the job is not running.
func (j *job) accept(i int, r *patch.Result, fromCache bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return false
	}
	p, ok := j.queue.Complete(i, r)
	if !ok {
		return false
	}
	if fromCache {
		j.cacheHits++
	}
	if j.persist != nil {
		j.persist(i, r)
	}
	j.broadcast(ProgressEvent{Progress: p})
	if p.Done == p.Total {
		j.finishLocked(StateDone, nil)
	}
	return true
}

// restore replays journaled results into a freshly rebuilt job (server
// restart), rebuilding its done counts, per-cell summaries and, if
// every replica was journaled, the done terminal state. Runs before the
// job is visible to any other goroutine, so nothing is journaled again
// or fanned out.
func (j *job) restore(results []ReplicaResult) {
	for _, rr := range results {
		j.queue.Complete(rr.Index, rr.Result)
	}
	if c := j.queue.Counts(); c.Done == c.Total {
		j.mu.Lock()
		j.finishLocked(StateDone, nil)
		j.mu.Unlock()
	}
}

// fail moves the job to failed on the first replica error and cancels
// the rest.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		j.finishLocked(StateFailed, err)
	}
}

// cancelJob moves the job to cancelled (client DELETE or server
// shutdown); in-flight replicas stop at the next claim boundary.
func (j *job) cancelJob() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		j.finishLocked(StateCancelled, nil)
	}
}

// finishLocked is the single terminal transition: it stamps the state,
// cancels the job context, emits the terminal progress event, and
// closes every subscriber. Called with mu held.
func (j *job) finishLocked(s State, err error) {
	j.state = s
	j.err = err
	j.cancel()
	// Done needs no marker (a complete journal is the marker); failed
	// and cancelled are not derivable from the journal, so they are.
	if j.persistTerminal != nil && (s == StateFailed || s == StateCancelled) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		j.persistTerminal(s, msg)
	}
	c := j.queue.Counts()
	ev := ProgressEvent{Progress: patch.Progress{Done: c.Done, Total: c.Total}, State: s}
	if err != nil {
		ev.Error = err.Error()
	}
	j.broadcast(ev)
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	close(j.finished)
}

// broadcast sends ev to every subscriber. Channels are sized for the
// whole stream (replicas + snapshot + terminal), so sends never block;
// the non-blocking send is a belt-and-braces guard. Called with mu
// held.
func (j *job) broadcast(ev ProgressEvent) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a progress listener. The returned channel first
// carries a snapshot of the current counts, then one event per
// completed replica, then a terminal event; it is closed when the job
// finishes. unsubscribe detaches early (client disconnect).
func (j *job) subscribe() (ch chan ProgressEvent, unsubscribe func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.queue.Counts()
	ch = make(chan ProgressEvent, c.Total+2)
	snapshot := ProgressEvent{Progress: c, State: j.state}
	if j.err != nil {
		snapshot.Error = j.err.Error()
	}
	ch <- snapshot
	if j.state.Finished() {
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// prefill completes every replica already present in the result cache
// before any simulation is scheduled — the warm-cache fast path. With
// a fully warm cache the job finishes here without touching a worker.
func (j *job) prefill(cache *ResultCache) {
	for i := 0; i < j.queue.NumReplicas() && j.ctx.Err() == nil; i++ {
		if j.queue.Completed(i) {
			continue
		}
		if r, ok := cache.Get(j.queue.ReplicaConfig(i).Fingerprint()); ok {
			j.accept(i, r, true)
		}
	}
}
