package mrgp

import "nvrel/internal/obs"

// Metric handles for the Markov-regenerative solvers. All updates are
// no-ops while obs is disabled (the default).
var (
	// Solve routing: dense embedded-chain solves, matrix-free sparse
	// solves (either sparse rung), general (state-dependent clock) solves,
	// and sparse-routed solves whose Krylov rung failed and fell back to
	// the power or the dense rung.
	metSolveDense    = obs.CounterFor("mrgp.solve.dense")
	metSolveSparse   = obs.CounterFor("mrgp.solve.sparse")
	metSolveGeneral  = obs.CounterFor("mrgp.solve.general")
	metSolveFallback = obs.CounterFor("mrgp.solve.fallback_dense")

	// Routing vs recovery: routed_* counts which kernel family the size
	// routing picked; recovered_power and recovered_dense count solves
	// where the power or the dense rung succeeded AFTER the Krylov rung
	// failed. fallback_dense above counts the fallback solves themselves
	// (recovered or not), so fallback_dense - recovered_power -
	// recovered_dense is the number of chains that exhausted every rung.
	metRoutedDense    = obs.CounterFor("mrgp.solve.routed_dense")
	metRoutedSparse   = obs.CounterFor("mrgp.solve.routed_sparse")
	metRecoveredPower = obs.CounterFor("mrgp.solve.recovered_power")
	metRecoveredDense = obs.CounterFor("mrgp.solve.recovered_dense")

	// Sparse embedded chain: applications x -> xP run across solves on
	// either sparse rung (Krylov steps and residual checks on the sparse
	// rung, power cycles on the power rung; ~15 and ~300 per six-version
	// N=12 solve), and the final L1 residual of the most recent solve.
	metPowerCycles   = obs.CounterFor("mrgp.power.cycles")
	metPowerResidual = obs.GaugeFor("mrgp.power.final_residual")
)
