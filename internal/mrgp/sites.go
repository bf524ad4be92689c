package mrgp

import "nvrel/internal/faultinject"

// Fault-injection sites of the MRGP solvers. Hooks sit behind the
// faultinject global gate (one atomic load, no allocation when chaos is
// off).
var (
	// fiKrylovStall forces the Krylov rung to give up mid-solve with a
	// typed not-converged error, exercising the sparse -> power fallback.
	fiKrylovStall = faultinject.SiteFor("mrgp.krylov.stall")
	// fiPowerStall does the same to the power rung; armed together with
	// fiKrylovStall it exercises the sparse -> power -> dense ladder.
	fiPowerStall = faultinject.SiteFor("mrgp.power.stall")
	// fiMrgpPanic panics before a P application on either sparse rung,
	// exercising the recover-and-fall-back layer of Solve.
	fiMrgpPanic = faultinject.SiteFor("mrgp.kernel.panic")
)
