package sim

import (
	"errors"
	"strings"
	"testing"

	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/fault"
	"patch/internal/msg"
	"patch/internal/predictor"
)

// hostilePlan is the reference adversarial schedule used across the
// fault battery: jitter on every hop, a mid-run degradation window on
// half the links, and staggered congestion bursts.
func hostilePlan() *fault.Plan {
	return &fault.Plan{
		Seed:      99,
		HopJitter: 6,
		Degrade:   []fault.Window{{From: 2_000, To: 30_000, Multiplier: 4, LinkFraction: 0.5}},
		Burst:     fault.Burst{Period: 1_000, Duration: 200, Extra: 5},
	}
}

func faultConfigs() map[string]Config {
	base := Config{Cores: 16, OpsPerCore: 300, Seed: 7, Workload: "micro", AuditEvery: 500}
	mk := func(mut func(*Config)) Config {
		c := base
		c.Net.Fault = hostilePlan()
		mut(&c)
		return c
	}
	return map[string]Config{
		"directory":         mk(func(c *Config) { c.Protocol = Directory }),
		"patch-all":         mk(func(c *Config) { c.Protocol = PATCH; c.Policy = predictor.All; c.BestEffort = true }),
		"patch-none":        mk(func(c *Config) { c.Protocol = PATCH; c.Policy = predictor.None }),
		"patch-nonadaptive": mk(func(c *Config) { c.Protocol = PATCH; c.Policy = predictor.All }),
		"tokenb":            mk(func(c *Config) { c.Protocol = TokenB }),
		"patch-unbounded": mk(func(c *Config) {
			c.Protocol = PATCH
			c.Policy = predictor.All
			c.BestEffort = true
			c.Net.Unbounded = true
		}),
		"directory-degraded": mk(func(c *Config) { c.Protocol = Directory; c.Net.Fault.HopJitter = 0 }),
	}
}

// TestFaultedRunsSurviveAudit drives every protocol through the hostile
// plan with the mid-run invariant audit at high frequency: injection
// must shake nothing loose (conservation, single-writer, queue bounds
// all hold at every sample point) and the run must still complete.
func TestFaultedRunsSurviveAudit(t *testing.T) {
	for name, cfg := range faultConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if r.Cycles == 0 || r.Ops == 0 {
				t.Fatalf("degenerate result: %+v", r)
			}
		})
	}
}

// TestFaultRunsDeterministic pins that a faulted run is a pure function
// of its config: same config, same result, on fresh systems and on a
// Reset-reused system.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := faultConfigs()["patch-all"]
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *first {
		t.Fatalf("fresh faulted runs diverged:\n%+v\n%+v", first, again)
	}

	// Reset path: prime a system with a different (also faulted) config,
	// then Reset into cfg — the injector streams must rewind.
	prime := cfg
	prime.Seed = 12345
	sys, err := NewSystem(prime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	reused, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *reused != *first {
		t.Fatalf("reset faulted run diverged from fresh:\n%+v\n%+v", first, reused)
	}
}

// TestZeroFaultPlanIsNoop pins the nil-plan contract at the sim layer:
// a pointer to a zero plan and no plan at all produce identical results.
func TestZeroFaultPlanIsNoop(t *testing.T) {
	base := Config{Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: 16, OpsPerCore: 300, Seed: 3, Workload: "micro"}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := base
	zeroed.Net.Fault = &fault.Plan{Seed: 42} // seed alone injects nothing
	got, err := Run(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	got.Config = bare.Config // configs differ by the pointer; outputs must not
	if *got != *bare {
		t.Fatalf("zero fault plan changed results:\n%+v\n%+v", bare, got)
	}
}

// TestFaultInjectionPerturbsTiming sanity-checks that an enabled plan
// actually does something: runtime must differ from the fault-free run.
func TestFaultInjectionPerturbsTiming(t *testing.T) {
	base := Config{Protocol: Directory, Cores: 16, OpsPerCore: 300, Seed: 3, Workload: "micro"}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.Net.Fault = hostilePlan()
	got, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles == bare.Cycles {
		t.Fatalf("hostile plan left runtime unchanged at %d cycles", got.Cycles)
	}
	if got.Cycles < bare.Cycles {
		t.Fatalf("injected delay sped the run up: %d < %d cycles", got.Cycles, bare.Cycles)
	}
}

// TestWatchdogReturnsTypedDiagnostics pins the forensics contract: a
// watchdog failure is a *RunError carrying kind, protocol, and a
// structured dump, and its message keeps the historical phrasing.
func TestWatchdogReturnsTypedDiagnostics(t *testing.T) {
	// Enough work that the run cannot complete within the engine's first
	// event chunk, so the watchdog trips with protocol state in flight.
	cfg := Config{Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: 16, OpsPerCore: 100_000, Seed: 1, Workload: "micro", MaxCycles: 1}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("MaxCycles=1 run succeeded")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("watchdog error is %T, want *RunError: %v", err, err)
	}
	if re.Kind != FailWatchdog {
		t.Fatalf("Kind = %v, want FailWatchdog", re.Kind)
	}
	if re.Protocol != PATCH {
		t.Fatalf("Protocol = %v, want PATCH", re.Protocol)
	}
	if !strings.Contains(err.Error(), "liveness watchdog") {
		t.Fatalf("error lost the watchdog phrasing: %v", err)
	}
	d := re.Diag
	if d.Cores != 16 || d.Finished == d.Cores {
		t.Fatalf("diagnostics not populated: %+v", d)
	}
	// A 16-core system stopped after one cycle has outstanding work; the
	// dump must show it and render without panicking.
	if d.OutstandingMSHRs == 0 && d.PendingSends == 0 && d.Queued == 0 {
		t.Fatalf("no outstanding state in diagnostics: %+v", d)
	}
	if dump := d.Dump(); !strings.Contains(dump, "cores finished") {
		t.Fatalf("dump missing summary: %q", dump)
	}
}

// auditMustCatch runs PATCH-All (16 cores, micro, seed 5, audit every
// 200 cycles) for 50k events, applies tamper to the live system, and
// requires a following mid-run audit pass to fail with a FailAudit
// RunError whose message contains want.
func auditMustCatch(t *testing.T, tamper func(t *testing.T, s *System), want string) {
	t.Helper()
	cfg := Config{Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: 16, OpsPerCore: 20_000, Seed: 5, Workload: "micro", AuditEvery: 200}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.start()
	sys.Eng.Run(50_000)
	if sys.auditErr != nil {
		t.Fatalf("audit tripped before tampering: %v", sys.auditErr)
	}
	tamper(t, sys)
	for i := 0; i < 100 && sys.auditErr == nil; i++ {
		if sys.Eng.Run(10_000) == 0 {
			break
		}
	}
	if sys.auditErr == nil {
		t.Fatal("audit never detected the tampering")
	}
	var re *RunError
	if !errors.As(sys.auditErr, &re) {
		t.Fatalf("audit error is %T, want *RunError: %v", sys.auditErr, sys.auditErr)
	}
	if re.Kind != FailAudit {
		t.Fatalf("Kind = %v, want FailAudit", re.Kind)
	}
	if !strings.Contains(re.Error(), want) {
		t.Fatalf("audit error does not name the violation (%q): %v", want, re)
	}
}

// TestAuditDetectsTokenTheft proves the mid-run conservation audit has
// teeth: destroy one token in a cache line holding several (leaving its
// owner bit alone, so the damage is invisible to the line's own MOESI
// view — only global conservation can see it).
func TestAuditDetectsTokenTheft(t *testing.T) {
	auditMustCatch(t, func(t *testing.T, s *System) {
		var victim *cache.Line
		for _, n := range s.Nodes {
			n.Shared().L2.ForEach(func(l *cache.Line) {
				if victim == nil && l.Tok.Count > 1 {
					victim = l
				}
			})
			if victim != nil {
				break
			}
		}
		if victim == nil {
			t.Fatal("no cache line holding multiple tokens after 50k events")
		}
		victim.Tok.Count--
	}, "token conservation violated")
}

// TestAuditDetectsForgedHomeOwner forges an owner token on a home entry
// whose owner token is elsewhere, with every count unchanged. Only the
// owner arm of the conservation check can see it: the token sums still
// balance and the single-writer check reads caches only.
func TestAuditDetectsForgedHomeOwner(t *testing.T) {
	auditMustCatch(t, func(t *testing.T, s *System) {
		var victim *directory.Entry
		for _, n := range s.Nodes {
			n.Directory().ForEach(func(e *directory.Entry) {
				if victim == nil && !e.Tok.Owner && !e.Busy {
					victim = e
				}
			})
			if victim != nil {
				break
			}
		}
		if victim == nil {
			t.Fatal("no idle home entry without the owner token after 50k events")
		}
		victim.Tok.Owner = true
	}, "2 owner tokens")
}

// TestAuditCountsHomeLookupTokens audits the instant after each of the
// first token-carrying writebacks and tenure returns reaches its home:
// the message has left the network but waits out the directory lookup
// before its tokens join the home, so the audit must count it as parked
// at the home node. No violation may be reported.
func TestAuditCountsHomeLookupTokens(t *testing.T) {
	cfg := Config{Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: 16, OpsPerCore: 3000, Seed: 5, Workload: "micro"}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	deliver := sys.Net.OnDeliver
	probes := 0
	sys.Net.OnDeliver = func(now event.Time, m *msg.Message) {
		deliver(now, m)
		home := m.Type == msg.PutM || m.Type == msg.PutClean || m.Type == msg.TokenReturn
		if !home || (m.Tokens == 0 && !m.Owner) || probes == 50 {
			return
		}
		probes++
		sys.Eng.After(1, func(event.Time) {
			if err := sys.auditNow(); err != nil && sys.auditErr == nil {
				sys.auditErr = err
			}
		})
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if probes < 20 {
		t.Fatalf("only %d token-carrying home messages; the test is not exercising the lookup window", probes)
	}
}
