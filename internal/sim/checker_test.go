package sim

import (
	"strings"
	"testing"

	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/msg"
	"patch/internal/predictor"
)

// runToCompletion builds and runs a small system of protocol k,
// returning it before invariant checking so tests can corrupt state and
// prove the checkers catch it (mutation testing of the verification
// infrastructure itself).
func runToCompletion(t *testing.T, k Kind) *System {
	t.Helper()
	cfg := Config{
		Protocol: k, Cores: 8, OpsPerCore: 100, WarmupOps: 100, Workload: "micro", Seed: 9,
	}
	if k == PATCH {
		cfg.Policy, cfg.BestEffort = predictor.All, true
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	s.Eng.Run(0)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean run failed checks: %v", err)
	}
	return s
}

// eachProtocol runs a mutation case on a freshly completed system of
// every listed protocol, reaching the nodes only through protocol.Node.
func eachProtocol(t *testing.T, kinds []Kind, mutate func(t *testing.T, s *System), want string) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			s := runToCompletion(t, k)
			mutate(t, s)
			if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("mutation not caught (want %q): %v", want, err)
			}
		})
	}
}

var tokenProtocols = []Kind{PATCH, TokenB}

// findLine returns the first L2 line, in node order, that match accepts.
func findLine(t *testing.T, s *System, match func(l *cache.Line) bool) *cache.Line {
	t.Helper()
	for _, n := range s.Nodes {
		var found *cache.Line
		n.Shared().L2.ForEach(func(l *cache.Line) {
			if found == nil && match(l) {
				found = l
			}
		})
		if found != nil {
			return found
		}
	}
	t.Fatal("no matching L2 line at end of run")
	return nil
}

func TestCheckerCatchesLostToken(t *testing.T) {
	eachProtocol(t, tokenProtocols, func(t *testing.T, s *System) {
		l := findLine(t, s, func(l *cache.Line) bool { return l.Tok.Count > 1 })
		l.Tok.Count-- // destroy a token (Rule #1 violation)
	}, "conservation")
}

// TestCheckerConservationWithoutAuditor proves CheckInvariants still
// checks Rule #1 on a token system built with checks disabled, where no
// auditor watches the network.
func TestCheckerConservationWithoutAuditor(t *testing.T) {
	for _, k := range tokenProtocols {
		t.Run(k.String(), func(t *testing.T) {
			s, err := NewSystem(Config{Protocol: k, Cores: 8, OpsPerCore: 100, Workload: "micro", Seed: 9, SkipChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			s.start()
			s.Eng.Run(0)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("clean run failed checks: %v", err)
			}
			findLine(t, s, func(l *cache.Line) bool { return l.Tok.Count > 1 }).Tok.Count--
			if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "conservation") {
				t.Fatalf("lost token not caught without the auditor: %v", err)
			}
		})
	}
}

// TestCheckerCatchesDuplicatedOwner forges a second owner token without
// changing any count, so only the owner arm of the conservation check
// can see it.
func TestCheckerCatchesDuplicatedOwner(t *testing.T) {
	eachProtocol(t, tokenProtocols, func(t *testing.T, s *System) {
		l := findLine(t, s, func(l *cache.Line) bool { return l.Tok.Count > 0 && !l.Tok.Owner })
		l.Tok.Owner = true
	}, "2 owner tokens")
}

// TestCheckerCatchesLostWrite rolls back the newest version of a written
// block everywhere it is held (caches and home memory), as if its last
// store were lost.
func TestCheckerCatchesLostWrite(t *testing.T) {
	eachProtocol(t, []Kind{Directory, PATCH, TokenB}, func(t *testing.T, s *System) {
		victim := findLine(t, s, func(l *cache.Line) bool { return l.Version > 0 })
		a, v := victim.Addr, victim.Version
		for _, n := range s.Nodes {
			n.Shared().L2.ForEach(func(l *cache.Line) {
				if l.Addr == a && l.Version > v {
					v = l.Version
				}
			})
			n.Directory().ForEach(func(e *directory.Entry) {
				if e.Addr == a && e.MemVersion > v {
					v = e.MemVersion
				}
			})
		}
		for _, n := range s.Nodes {
			n.Shared().L2.ForEach(func(l *cache.Line) {
				if l.Addr == a && l.Version == v {
					l.Version--
				}
			})
			n.Directory().ForEach(func(e *directory.Entry) {
				if e.Addr == a && e.MemVersion == v {
					e.MemVersion--
				}
			})
		}
	}, "serialisation")
}

// TestCheckerCatchesUnquiescedNode leaves a miss outstanding: an access
// to a block nobody holds, issued after the run and never serviced.
func TestCheckerCatchesUnquiescedNode(t *testing.T) {
	eachProtocol(t, []Kind{Directory, PATCH, TokenB}, func(t *testing.T, s *System) {
		s.Nodes[0].Access(msg.Addr(0xdead_f000), true, func() {
			t.Error("access to an untouched block completed without running the engine")
		})
	}, "quiesced")
}

// TestCheckerCatchesStuckHomeEntry leaves a home directory entry busy, as
// if a home transaction never completed. TokenB's home is a token store
// without directory transactions, so it has no such entry to corrupt.
func TestCheckerCatchesStuckHomeEntry(t *testing.T) {
	eachProtocol(t, []Kind{Directory, PATCH}, func(t *testing.T, s *System) {
		s.Nodes[0].Directory().Entry(msg.Addr(0xdead_f000)).Busy = true
	}, "quiesced")
}
