package nvp

import (
	"testing"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
)

// TestSolveGuardsResultNaN: the top-level result guard catches a NaN
// injected into the distribution after every solver-level guard passed —
// no reliability number can ever be computed from a poisoned vector.
func TestSolveGuardsResultNaN(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "nvp.result.nan"}, 1); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	defer func() {
		faultinject.Disable()
		faultinject.Reset()
	}()
	_, _, err = m.Solve(nil, nil, Opts{})
	se, ok := linalg.AsSolveError(err)
	if !ok || se.Kind != linalg.FailNaN || se.Site != "nvp.solve" {
		t.Fatalf("poisoned result gave %v, want typed NaN at nvp.solve", err)
	}
}
