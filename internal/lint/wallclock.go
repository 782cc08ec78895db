package lint

import (
	"go/types"
)

// wallClockPkgs are the clock-disciplined packages (by last
// import-path segment): the max-flow scheduler, the experiment
// harness, the workload generator, the raft core, and the worker
// ingest path must produce identical output for identical input, so
// they may not consult the wall clock directly. (Raft's tick/election
// timers run behind the Clock seam so failover tests can drive
// elections deterministically; the worker's append retry loop and
// archive ticker run behind timeNow/timeSleep/newWallTicker
// in its clock.go for the same reason.) The broker's retry/hedge
// timing, the chaos harness's pacing and dwell times, and the HTTP
// surface's timestamp defaulting and latency accounting follow the
// same discipline through their own clock.go seams, so their tests can
// pin time too.
var wallClockPkgs = map[string]bool{
	"flow":        true,
	"experiments": true,
	"workload":    true,
	"raft":        true,
	"worker":      true,
	"broker":      true,
	"chaos":       true,
	"httpapi":     true,
	"ship":        true,
}

// wallClockFuncs are the time-package functions that read or depend on
// the wall clock. Pure constructors (time.Date, time.Duration
// arithmetic) are deterministic and stay allowed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"NewTimer":  true,
	"NewTicker": true,
}

// wallClockSeamFile is the one file per deterministic package allowed
// to touch the time package: it defines the package's clock seam
// (a swappable `now` variable / stopwatch helper), which tests and
// simulations can pin.
const wallClockSeamFile = "clock.go"

// WallClockAnalyzer keeps deterministic packages off the wall clock
// outside their clock seam.
var WallClockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "clock-disciplined packages (flow/experiments/workload/raft/worker/broker/chaos/httpapi) must not read the wall clock outside clock.go",
	Run:  runWallClock,
}

func runWallClock(p *Pass) {
	if !wallClockPkgs[p.PkgBase()] {
		return
	}
	for id, obj := range p.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
			continue
		}
		// Methods on time.Time (t.After(u), t.Since is not one but
		// t.Sub is) are pure value comparisons, not clock reads; only
		// the package-level functions consult the wall clock.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			continue
		}
		if p.Filename(id.Pos()) == wallClockSeamFile {
			continue
		}
		p.Reportf(id.Pos(), "time.%s in deterministic package %s; route through the clock seam (%s)",
			fn.Name(), p.PkgBase(), wallClockSeamFile)
	}
}
