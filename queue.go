package patch

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// A ReplicaQueue is the one scheduler behind every sweep: a Matrix
// expanded into its replicas, handed out by Claim and folded back by
// Complete into position-indexed result slots. Sweep drains it with a
// local pool (Drain); the sweep service drains the same queue with its
// own local pool and hands leased claims to remote workers. Because
// each result lands in the slot of its stable replica index and a cell
// is summarised in seed order, the merged output is byte-identical
// however the replicas were distributed and in whatever order they
// finished.
//
// The queue reads no clock: lease deadlines are computed from the now
// the caller passes in. All methods are safe for concurrent use.
type ReplicaQueue struct {
	*ReplicaPlan

	mu   sync.Mutex
	next int // every replica below next was claimed or completed once
	// leases holds the outstanding leased claims in replica order, so
	// expiry is judged over outstanding claims only and a lease is found
	// by binary search.
	leases   []leaseEntry
	results  []*Result // replica i's result, nil until completed
	done     int
	cellDone []int
	cells    []CellResult // Summary set when the cell's last seed lands
	ready    int          // cells[:ready] are all summarised
}

// A leaseEntry is one outstanding claim; it lapses at deadline unless
// its claimant heartbeats it or completes the replica.
type leaseEntry struct {
	index    int
	deadline time.Time
}

// NewReplicaQueue expands m into a queue of unclaimed replicas. It
// fails like Sweep does: on an invalid cell or an empty expansion.
func NewReplicaQueue(m Matrix) (*ReplicaQueue, error) {
	rp, err := m.Plan()
	if err != nil {
		return nil, err
	}
	p := rp.p
	q := &ReplicaQueue{
		ReplicaPlan: rp,
		results:     make([]*Result, p.numReplicas()),
		cellDone:    make([]int, len(p.cells)),
		cells:       make([]CellResult, len(p.cells)),
	}
	for i, c := range p.cells {
		q.cells[i] = CellResult{Index: i, Label: c.label, Config: c.cfg}
	}
	return q, nil
}

// Claim hands out up to n runnable replica indices: first replicas
// whose lease lapsed before now, then never-claimed ones in matrix
// order. With lease > 0 each claim lapses at now+lease unless
// heartbeated; with lease 0 it is held until completion. A claimant
// that passes the zero now never sees a lease lapse. An empty result
// does not mean the queue is finished: every replica may simply be
// claimed or done.
func (q *ReplicaQueue) Claim(n int, lease time.Duration, now time.Time) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int
	kept := q.leases[:0]
	for _, l := range q.leases {
		if len(out) < n && now.After(l.deadline) {
			out = append(out, l.index)
			if lease <= 0 {
				continue // now held until completion: no longer leased
			}
			l.deadline = now.Add(lease)
		}
		kept = append(kept, l)
	}
	q.leases = kept
	for ; len(out) < n && q.next < len(q.results); q.next++ {
		if q.results[q.next] != nil {
			continue // completed without a claim (a cache hit or a replay)
		}
		out = append(out, q.next)
		if lease > 0 {
			q.leases = append(q.leases, leaseEntry{index: q.next, deadline: now.Add(lease)})
		}
	}
	return out
}

// findLease returns the position of replica i's outstanding lease.
// Called with mu held.
func (q *ReplicaQueue) findLease(i int) (int, bool) {
	return slices.BinarySearchFunc(q.leases, i, func(l leaseEntry, i int) int { return cmp.Compare(l.index, i) })
}

// Heartbeat extends the lease of each listed replica that is still
// leased and incomplete to now+lease, returning how many it extended.
// A lapsed lease nobody re-claimed is extended too: its claimant is
// evidently alive. Claims held until completion have no lease to
// extend.
func (q *ReplicaQueue) Heartbeat(indices []int, lease time.Duration, now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if lease <= 0 {
		return 0
	}
	extended := 0
	for _, i := range indices {
		if k, ok := q.findLease(i); ok {
			q.leases[k].deadline = now.Add(lease)
			extended++
		}
	}
	return extended
}

// Complete records replica i's result and returns the progress it
// makes; the cell is summarised when its last seed lands. It is
// idempotent: a duplicate (a lapsed lease raced its first claimant; by
// determinism the copy is byte-identical), an out-of-range index or a
// nil result is dropped and reported false.
func (q *ReplicaQueue) Complete(i int, r *Result) (Progress, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i < 0 || i >= len(q.results) || q.results[i] != nil || r == nil {
		return Progress{}, false
	}
	q.results[i] = r
	q.done++
	if k, ok := q.findLease(i); ok {
		q.leases = slices.Delete(q.leases, k, k+1)
	}
	seeds := q.p.seeds
	c := i / seeds
	q.cellDone[c]++
	if q.cellDone[c] == seeds {
		first := c * seeds
		q.cells[c].Summary = Summarize(q.results[first : first+seeds : first+seeds])
		for q.ready < len(q.cells) && q.cells[q.ready].Summary != nil {
			q.ready++
		}
	}
	return Progress{
		Done: q.done, Total: len(q.results),
		Cell: c, Cells: len(q.cells),
		CellDone: q.cellDone[c], CellTotal: seeds,
		Label: q.cells[c].Label, Seed: q.cells[c].Config.Seed + int64(i%seeds),
	}, true
}

// Completed reports whether replica i already has its result.
func (q *ReplicaQueue) Completed(i int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.results[i] != nil
}

// Counts returns the queue-wide Done, Total and Cells counts.
func (q *ReplicaQueue) Counts() Progress {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Progress{Done: q.done, Total: len(q.results), Cells: len(q.cells)}
}

// Cells returns the summarised cells in matrix order, up to the first
// cell still missing a seed: every cell once the queue is finished.
// This is the list every emitter replays.
func (q *ReplicaQueue) Cells() []CellResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cells[:q.ready:q.ready]
}

// Drain is the in-process consumer of the queue, shared by Sweep and
// the sweep service's local pool. Each of workers goroutines (<= 0:
// GOMAXPROCS) owns one Runner from newRunner (nil: NewRunner), claims
// one replica at a time with no lease, runs it, and hands the result to
// done; done calls are serialised. Drain returns when nothing is left to
// claim — replicas leased to other consumers are not waited for — or
// when ctx is done, or at the first error from a Runner or from done,
// which it returns and after which no further result is handed on.
func (q *ReplicaQueue) Drain(ctx context.Context, workers int, newRunner func() Runner, done func(i int, r *Result) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c := q.Counts(); workers > c.Total-c.Done {
		workers = c.Total - c.Done
	}
	if newRunner == nil {
		newRunner = NewRunner
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := newRunner()
			defer runner.Close()
			for ctx.Err() == nil {
				claim := q.Claim(1, 0, time.Time{})
				if len(claim) == 0 {
					return
				}
				i := claim[0]
				cfg := q.ReplicaConfig(i)
				r, err := runner.RunReplica(cfg)
				if err != nil {
					err = fmt.Errorf("patch: %s seed %d: %w", q.cells[i/q.p.seeds].Label, cfg.Seed, err)
				}
				mu.Lock()
				if err == nil && first == nil {
					err = done(i, r)
				}
				if err != nil && first == nil {
					first = err
					cancel()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}
