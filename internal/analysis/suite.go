package analysis

// Repository package paths the contracts bind to. The root package is
// "patch" (the module path); determinism applies to its sweep engine
// files only — options/emitters run host-side where the wall clock is
// legitimate.
const (
	modulePath      = "patch"
	pkgEvent        = "patch/internal/event"
	pkgSim          = "patch/internal/sim"
	pkgInterconnect = "patch/internal/interconnect"
	pkgProtocolTree = "patch/internal/protocol/..."
	pkgProtocol     = "patch/internal/protocol"
	pkgMsg          = "patch/internal/msg"
	pkgCore         = "patch/internal/core"
	pkgTokenB       = "patch/internal/protocol/tokenb"
	pkgDirectory    = "patch/internal/protocol/directoryproto"
	pkgService      = "patch/service"
	pkgInternalTree = "patch/internal/..."
	pkgExperiments  = "patch/internal/experiments"
	pkgLitmus       = "patch/internal/litmus"
	pkgFault        = "patch/internal/fault"
	pkgToken        = "patch/internal/token"
)

// PatchSuite returns the analyzers configured for this repository's
// contracts; cmd/patchlint runs exactly this set.
func PatchSuite() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DeterminismConfig{
			Scope: Scope{
				Paths: []string{
					modulePath, pkgSim, pkgEvent, pkgInterconnect, pkgProtocolTree,
					// Reporting/aggregation paths: map-range order here
					// reaches figure output and axiom error selection.
					pkgExperiments, pkgLitmus,
					// Fault injection must be exactly as deterministic as
					// the engine it perturbs.
					pkgFault,
					// The conservation checker picks which violation an
					// audit reports.
					pkgToken,
				},
				Files: map[string][]string{
					// Of the root package, only the sweep engine and its
					// replica queue feed simulation results;
					// options/emitters are host-side.
					modulePath: {"sweep.go", "queue.go"},
				},
			},
		}),
		NewSteadyState(),
		NewWirecheck(WirecheckConfig{
			Scope:        Scope{Paths: []string{modulePath, pkgService}},
			ModulePrefix: modulePath,
		}),
		NewPoolpair(PoolpairConfig{
			Scope: Scope{Paths: []string{pkgInternalTree}},
			Seams: []Seam{
				{
					Name: "msg",
					Acquires: []FuncRef{
						{Pkg: pkgMsg, Recv: "Pool", Name: "New"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "NewMessage"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "Msg"},
					},
					Releases: []FuncRef{
						{Pkg: pkgMsg, Recv: "Pool", Name: "Release"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Release"},
					},
					Sinks: []FuncRef{
						// Sending transfers ownership: the network
						// releases the message at delivery.
						{Pkg: pkgProtocol, Recv: "Base", Name: "Send"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "SendAfter"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "Multicast"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Send"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Multicast"},
					},
				},
				{
					Name: "freelist",
					Acquires: []FuncRef{
						{Pkg: pkgProtocol, Recv: "FreeList", Name: "Get"},
					},
					Releases: []FuncRef{
						{Pkg: pkgProtocol, Recv: "FreeList", Name: "Put"},
					},
					Sinks: []FuncRef{
						// Scheduling a pooled task hands it to the
						// engine until it fires.
						{Pkg: pkgEvent, Recv: "Engine", Name: "AtTask"},
						{Pkg: pkgEvent, Recv: "Engine", Name: "AfterTask"},
					},
				},
				{
					Name: "mshr",
					Acquires: []FuncRef{
						{Pkg: pkgCore, Recv: "Node", Name: "newMSHR"},
						{Pkg: pkgTokenB, Recv: "Node", Name: "newMSHR"},
						{Pkg: pkgDirectory, Recv: "Node", Name: "newMSHR"},
					},
					Releases: []FuncRef{
						{Pkg: pkgCore, Recv: "Node", Name: "freeMSHR"},
						{Pkg: pkgTokenB, Recv: "Node", Name: "freeMSHR"},
						{Pkg: pkgDirectory, Recv: "Node", Name: "freeMSHR"},
					},
				},
			},
		}),
	}
}
