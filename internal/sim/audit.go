package sim

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/protocol"
)

// auditTask re-verifies mid-run invariants every Config.AuditEvery
// cycles: the end-of-run checks only see the quiesced final state, so a
// protocol bug whose damage is transient (a token duplicated and later
// re-merged, an unbounded home queue that eventually drains) would
// otherwise go unnoticed. Fault-injected runs enable this by default —
// adversarial delay is exactly what shakes such transients loose.
//
// The task reads simulator state but never mutates it, so scheduling it
// cannot change a run's results; it stops rescheduling once the run
// finished, a violation was found, or the event queue drained.
type auditTask struct{ s *System }

// Fire implements event.Task.
func (t *auditTask) Fire(event.Time) {
	s := t.s
	if s.auditErr != nil || s.finished == s.Cfg.Cores {
		return
	}
	if err := s.auditNow(); err != nil {
		s.auditErr = err
		return
	}
	if s.Eng.Len() == 0 {
		// Drained queue: the run is completing or deadlocking this
		// instant; keeping the queue alive would mask the deadlock.
		return
	}
	s.Eng.AfterTask(event.Time(s.Cfg.AuditEvery), t)
}

// auditNow checks every invariant that must hold at any instant, not
// only at quiescence. It returns a *RunError with diagnostics attached.
func (s *System) auditNow() error {
	if s.auditor != nil {
		if err := s.auditor.Err(); err != nil {
			return s.failRun(FailAudit, err.Error())
		}
		if err := s.checkConservation(); err != nil {
			return s.failRun(FailAudit, err.Error())
		}
	}
	if err := s.auditQueueDepths(); err != nil {
		return err
	}
	if err := s.checkSingleWriter(); err != nil {
		return s.failRun(FailAudit, err.Error())
	}
	return nil
}

// checkConservation verifies Rule #1 over every place a token can be:
// each node's L2, home slice and parked messages, plus the tokens on the
// wire. Only the auditor sees the wire, so without it (checks disabled)
// the result holds only at quiescence, when nothing is in flight.
func (s *System) checkConservation() error {
	if s.auditor == nil {
		return s.conservation.Check(s.Env.Tokens, protocol.Nodes(s.Nodes))
	}
	return s.conservation.Check(s.Env.Tokens, protocol.Nodes(s.Nodes), s.auditor)
}

// auditQueueDepths bounds the home request queues: every core can have
// only a handful of requests outstanding per block, so a queue that
// grows past a small multiple of the core count means requests are
// being re-queued without progress (a livelock signature the watchdog
// would take two billion cycles to call).
func (s *System) auditQueueDepths() error {
	bound := 4*s.Cfg.Cores + 16
	var err error
	check := func(home int, dir *directory.Directory) {
		dir.ForEach(func(e *directory.Entry) {
			if len(e.Queue) > bound && err == nil {
				err = s.failRun(FailAudit, fmt.Sprintf(
					"home %d queue for %#x holds %d requests (bound %d)",
					home, uint64(e.Addr), len(e.Queue), bound))
			}
		})
	}
	for i, n := range s.Nodes {
		check(i, n.Directory())
		if err != nil {
			return err
		}
	}
	return nil
}
