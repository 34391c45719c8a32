package engine

import "testing"

// TestDispatchFusedMatchesStagedPasses checks that fusing a stage chain
// produces the same result as running the stages as separate full passes,
// at several worker counts.
func TestDispatchFusedMatchesStagedPasses(t *testing.T) {
	const tasks, n = 8, 64
	build := func() [][]int {
		rows := make([][]int, tasks)
		for i := range rows {
			rows[i] = make([]int, n)
			for k := range rows[i] {
				rows[i][k] = i*n + k
			}
		}
		return rows
	}
	stageA := func(rows [][]int) func(int) {
		return func(i int) {
			for k := range rows[i] {
				rows[i][k] *= 3
			}
		}
	}
	stageB := func(rows [][]int) func(int) {
		return func(i int) {
			for k := range rows[i] {
				rows[i][k] += 7
			}
		}
	}

	want := build()
	Dispatch(tasks, n, stageA(want))
	Dispatch(tasks, n, stageB(want))

	for _, w := range []int{1, 4} {
		SetWorkers(w)
		SetMinParallelOps(1)
		got := build()
		DispatchFused(tasks, n, stageA(got), stageB(got))
		for i := range got {
			for k := range got[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("workers=%d: fused[%d][%d]=%d, staged=%d", w, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
	SetWorkers(0)
	SetMinParallelOps(0)
}
