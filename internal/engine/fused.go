package engine

// Fused dispatch: run a *sequence* of per-residue stages as one work item
// per task index, instead of one full Dispatch pass per stage.
//
// Dispatching stage-by-stage sweeps every residue vector once per stage,
// so at production sizes (N·R words ≫ L2) each stage re-faults the whole
// working set from memory. DispatchFused inverts the loop nest: task i
// runs stage_0(i), stage_1(i), …, stage_{S-1}(i) back to back, so the
// residue touched by task i stays in L1/L2 across the whole chain —
// the CPU analogue of Cheddar's fused NTT→pointwise→INTT GPU kernels and
// of BitPacker's residue-pipelined functional units.
//
// Correctness contract: stage s of task i may only read data that is (a)
// private to task i or (b) not written by any stage of any other task.
// Under that contract the execution order is observationally identical to
// running the stages as separate full passes, at every worker count —
// which is why fused results stay bit-identical to unfused ones.

// DispatchFused runs stages[0..S-1] for each of tasks indices as one work
// item per index (see the package comment above for the aliasing
// contract). opsPerStage is the per-stage cost hint (typically the
// residue vector length N); the inline-execution threshold sees the
// combined cost tasks·opsPerStage·S.
func DispatchFused(tasks, opsPerStage int, stages ...func(int)) {
	switch len(stages) {
	case 0:
		return
	case 1:
		Dispatch(tasks, opsPerStage, stages[0])
		return
	}
	Dispatch(tasks, opsPerStage*len(stages), func(i int) {
		for _, s := range stages {
			s(i)
		}
	})
}
