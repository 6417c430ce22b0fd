package patch

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func queueMatrix(cells, seeds int) Matrix {
	m := Matrix{
		Base:  Config{Cores: 8, Workload: "micro", OpsPerCore: 10, Seed: 1, SkipChecks: true},
		Seeds: seeds,
	}
	for i := 0; i < cells; i++ {
		m.Protocols = append(m.Protocols, FigureProtocols()[i])
	}
	return m
}

// TestReplicaQueueLinearClaiming drains a 2^17-replica single-cell
// queue one claim at a time. The cost of a claim must not grow with the
// number of replicas already done: a scheduler that rescans its claim
// table from index 0 on every call is quadratic and takes tens of
// seconds here.
func TestReplicaQueueLinearClaiming(t *testing.T) {
	const n = 1 << 17
	q, err := NewReplicaQueue(queueMatrix(1, n))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := &Result{Cycles: 1, BytesPerMiss: 1}
	start := time.Now()
	for i := 0; i < n; i++ {
		lease := time.Duration(i%2) * time.Minute // alternate leased and held claims
		c := q.Claim(1, lease, now)
		if len(c) != 1 || c[0] != i {
			t.Fatalf("claim %d handed out %v", i, c)
		}
		if _, ok := q.Complete(c[0], r); !ok {
			t.Fatalf("completion %d dropped", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("draining %d replicas one claim at a time took %v, want well under 2s", n, elapsed)
	}
	if c := q.Counts(); c.Done != n || len(q.Cells()) != 1 {
		t.Fatalf("after drain: %+v, %d cells ready", c, len(q.Cells()))
	}
}

// TestReplicaQueueLeases covers the claim contract the farm relies on:
// leased claims lapse and are re-issued first, heartbeats keep them,
// a held (lease 0) claim never lapses, completion is idempotent, and
// cells are summarised and listed in matrix order whatever order their
// replicas finish in.
func TestReplicaQueueLeases(t *testing.T) {
	q, err := NewReplicaQueue(queueMatrix(2, 3)) // 6 replicas, 2 cells
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const lease = time.Minute

	if got := q.Claim(2, lease, t0); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("first claim = %v", got)
	}
	if got := q.Claim(1, 0, t0); !slices.Equal(got, []int{2}) {
		t.Fatalf("held claim = %v", got)
	}
	if got := q.Claim(10, lease, t0); !slices.Equal(got, []int{3, 4, 5}) {
		t.Fatalf("rest = %v", got)
	}
	if got := q.Claim(10, lease, t0.Add(lease/2)); len(got) != 0 {
		t.Fatalf("claim inside every lease = %v", got)
	}

	// Heartbeat 1 and 4 after their leases lapsed: nobody re-claimed
	// them, so both are extended; the held claim 2 has no lease.
	t1 := t0.Add(2 * lease)
	if n := q.Heartbeat([]int{1, 2, 4}, lease, t1); n != 2 {
		t.Fatalf("heartbeat extended %d, want 2", n)
	}
	// Lapsed leases are re-issued in replica order; 1 and 4 are kept,
	// 2 is held. A held claim takes 0 off the lease list for good.
	if got := q.Claim(1, 0, t1); !slices.Equal(got, []int{0}) {
		t.Fatalf("held re-claim = %v", got)
	}
	if got := q.Claim(10, lease, t1); !slices.Equal(got, []int{3, 5}) {
		t.Fatalf("re-issue = %v", got)
	}
	if got := q.Claim(10, lease, t1.Add(10*lease)); !slices.Equal(got, []int{1, 3, 4, 5}) {
		t.Fatalf("re-issue after every lease lapsed = %v", got)
	}

	// Complete out of order; the second cell finishes first but is only
	// listed once the first has.
	res := func(i int) *Result { return &Result{Cycles: uint64(i), BytesPerMiss: float64(i)} }
	for _, i := range []int{5, 3, 4} {
		if _, ok := q.Complete(i, res(i)); !ok {
			t.Fatalf("complete %d dropped", i)
		}
	}
	if _, ok := q.Complete(4, res(4)); ok {
		t.Error("duplicate completion accepted")
	}
	if _, ok := q.Complete(6, res(6)); ok {
		t.Error("out-of-range completion accepted")
	}
	if got := q.Cells(); len(got) != 0 {
		t.Fatalf("cells listed before cell 0 finished: %d", len(got))
	}
	if n := q.Heartbeat([]int{3, 4, 5}, lease, t1); n != 0 {
		t.Errorf("heartbeat extended %d completed replicas", n)
	}
	q.Complete(0, res(0))
	q.Complete(2, res(2))
	p, _ := q.Complete(1, res(1))
	want := Progress{Done: 6, Total: 6, Cell: 0, Cells: 2, CellDone: 3, CellTotal: 3, Label: "Directory", Seed: 2}
	if p != want {
		t.Errorf("last progress = %+v, want %+v", p, want)
	}
	cells := q.Cells()
	if len(cells) != 2 {
		t.Fatalf("%d cells listed, want 2", len(cells))
	}
	for c, cr := range cells {
		if cr.Index != c || cr.Summary == nil {
			t.Fatalf("cell %d = %+v", c, cr)
		}
		for s, r := range cr.Summary.Results {
			if r.Cycles != uint64(3*c+s) {
				t.Errorf("cell %d seed %d holds replica %d", c, s, r.Cycles)
			}
		}
	}
	if got := q.Claim(10, lease, t1.Add(100*lease)); len(got) != 0 {
		t.Errorf("finished queue handed out %v", got)
	}
}

// TestReplicaQueueSharedConsumers drains one queue from a local Drain
// pool and a leasing claimant at once, as a sweepd job's local pool and
// its remote workers do: every replica is run and accepted exactly once
// and lands in its own slot.
func TestReplicaQueueSharedConsumers(t *testing.T) {
	q, err := NewReplicaQueue(queueMatrix(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := make(map[int]int) // replica index -> times run
	seedResult := func(i int, cfg Config) *Result {
		mu.Lock()
		runs[i]++
		mu.Unlock()
		return &Result{Cycles: uint64(cfg.Seed), BytesPerMiss: float64(i)}
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	remote := make(chan int)
	go func() {
		accepted := 0
		for {
			claims := q.Claim(3, time.Hour, now)
			if len(claims) == 0 {
				remote <- accepted
				return
			}
			for _, i := range claims {
				if _, ok := q.Complete(i, seedResult(i, q.ReplicaConfig(i))); ok {
					accepted++
				}
			}
		}
	}()
	local := 0
	err = q.Drain(context.Background(), 3, func() Runner {
		return fakeRunner(func(cfg Config) (*Result, error) {
			// The runner sees only the config; recover the index from
			// the cell (protocol) and the seed offset.
			i := int(cfg.Seed - 1)
			if cfg.Protocol != Directory {
				i += 50
			}
			return seedResult(i, cfg), nil
		})
	}, func(i int, r *Result) error {
		if _, ok := q.Complete(i, r); !ok {
			return fmt.Errorf("local completion of %d dropped", i)
		}
		local++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := local + <-remote; got != 100 {
		t.Fatalf("%d replicas accepted, want 100", got)
	}
	for i := 0; i < 100; i++ {
		if runs[i] != 1 {
			t.Errorf("replica %d ran %d times", i, runs[i])
		}
	}
	cells := q.Cells()
	if len(cells) != 2 {
		t.Fatalf("%d cells summarised, want 2", len(cells))
	}
	for c, cr := range cells {
		for s, r := range cr.Summary.Results {
			if r.BytesPerMiss != float64(50*c+s) {
				t.Errorf("cell %d seed %d holds replica %v", c, s, r.BytesPerMiss)
			}
		}
	}
}
