package ssse

import (
	"math/bits"
	"testing"
)

// FuzzSubtree checks the subtree table against the plain solver. The input
// picks a board size N in 1..12 (first byte), a depth in 0..N (second
// byte), and four walks down the search tree to that depth: at each row
// the next byte chooses one of the available columns. A walk stops early
// at a dead end, which is still a valid state (count gives no solutions).
// A state and its mirror image must share one table key and have the same
// solutions and nodes. Both go through the table, which is never emptied
// here, so a lookup may hit an entry another state stored; each must equal
// count on its own state.
func FuzzSubtree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 1 + at(0)%12
		depth := at(1) % (n + 1)
		walk := func(from int) state {
			var st state
			for st.row < depth {
				avail := ^(st.cols | st.d1 | st.d2) & mask(n)
				if avail == 0 {
					break
				}
				for k := at(from+st.row) % bits.OnesCount64(avail); k > 0; k-- {
					avail &= avail - 1
				}
				bit := avail & (-avail)
				st = state{
					cols: st.cols | bit,
					d1:   ((st.d1 | bit) << 1) & mask(n),
					d2:   (st.d2 | bit) >> 1,
					row:  st.row + 1,
				}
			}
			return st
		}
		rev := func(x uint64) uint64 { return bits.Reverse64(x) >> uint(64-n) }
		for w := 0; w < 4; w++ {
			st := walk(2 + w*n)
			mirror := state{cols: rev(st.cols), d1: rev(st.d2), d2: rev(st.d1), row: st.row}
			if canonical(st, n) != canonical(mirror, n) {
				t.Fatalf("%d-queens %+v: state and mirror %+v have different table keys", n, st, mirror)
			}
			sol, nodes := count(st.cols, st.d1, st.d2, st.row, n)
			msol, mnodes := count(mirror.cols, mirror.d1, mirror.d2, mirror.row, n)
			want := subtree{sol, nodes}
			if got := (subtree{msol, mnodes}); got != want {
				t.Fatalf("%d-queens %+v: mirror count = %+v, count = %+v", n, st, got, want)
			}
			for _, s := range []state{st, mirror, st} {
				if got := solve(s, n); got != want {
					t.Fatalf("%d-queens %+v: table solve = %+v, count = %+v", n, s, got, want)
				}
			}
		}
	})
}
