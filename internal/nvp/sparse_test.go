package nvp

import (
	"math"
	"testing"

	"nvrel/internal/mrgp"
	"nvrel/internal/petri"
)

// TestSparseSolversMatchDenseOnPaperModels: the acceptance bar of the
// sparse engine — on the paper's own configurations (and N-scaled
// variants of them) the sparse and dense steady-state paths agree to
// 1e-12 elementwise.
func TestSparseSolversMatchDenseOnPaperModels(t *testing.T) {
	t.Run("no-rejuvenation", func(t *testing.T) {
		for _, n := range []int{4, 6, 12} {
			p := DefaultFourVersion()
			p.N = n
			m, err := BuildNoRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
			want, _, err := m.Graph.Solve(nil, nil, petri.Opts{Rung: "gth"})
			if err != nil {
				t.Fatalf("N=%d dense: %v", n, err)
			}
			got, _, err := m.Graph.Solve(nil, nil, petri.Opts{Rung: "gs"})
			if err != nil {
				t.Fatalf("N=%d sparse: %v", n, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Errorf("N=%d: pi[%d] = %.17g, want %.17g", n, i, got[i], want[i])
				}
			}
		}
	})
	t.Run("with-rejuvenation", func(t *testing.T) {
		for _, n := range []int{6, 10} {
			p := DefaultSixVersion()
			p.N = n
			m, err := BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
			want, err := mrgp.SolveDenseWS(nil, m.Graph)
			if err != nil {
				t.Fatalf("N=%d dense: %v", n, err)
			}
			got, err := mrgp.SolveSparseSeededCtxWS(nil, nil, m.Graph, nil)
			if err != nil {
				t.Fatalf("N=%d sparse: %v", n, err)
			}
			for i := range want.Pi {
				if math.Abs(got.Pi[i]-want.Pi[i]) > 1e-12 {
					t.Errorf("N=%d: Pi[%d] = %.17g, want %.17g", n, i, got.Pi[i], want.Pi[i])
				}
			}
		}
	})
}
