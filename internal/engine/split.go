package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/plan"
)

// SplitMode says how a plan was decomposed for CF execution.
type SplitMode uint8

// Split modes. PartialAgg pushes scan+filter+partial aggregation into the
// workers and merges on the coordinator (the common analytic case);
// ScanPushdown pushes scan+filter of the largest table and leaves joins
// and aggregation to the coordinator-side top-level plan — exactly the
// "push down the expensive operators into a sub-plan" flow of Sec. III-A.
// JoinProbe pushes a whole left-deep join chain into the workers,
// partitioning the probe side while the coordinator prepares each join's
// shared build table once; TopN runs the plan's bounded sort (ORDER BY …
// LIMIT) in every worker, so each returns at most N rows, and again over
// the workers' survivors on the coordinator.
const (
	SplitPartialAgg SplitMode = iota
	SplitScanPushdown
	SplitJoinProbe
	SplitTopN
)

func (m SplitMode) String() string {
	switch m {
	case SplitPartialAgg:
		return "partial-agg"
	case SplitJoinProbe:
		return "join-probe"
	case SplitTopN:
		return "top-n"
	default:
		return "scan-pushdown"
	}
}

// WorkerTask is the unit of work one CF worker executes: the shared
// fragment plan over this task's file partition.
type WorkerTask struct {
	Part  int
	Files []catalog.FileMeta
}

// CFSplit is a plan decomposed into CF worker tasks plus a coordinator
// merge plan.
type CFSplit struct {
	Mode    SplitMode
	QueryID string
	Tasks   []WorkerTask

	workerPlan plan.Node      // fragment executed by each worker
	partScan   *plan.ScanNode // the partitioned scan inside workerPlan
	interm     *plan.ScanNode // synthetic scan over intermediates
	mergePlan  plan.Node
}

// SplitForCF decomposes a bound plan into `parts` CF worker tasks: every
// shape except a join in the workers, whose build cannot be shared across
// a process boundary. It returns an error only on internal
// inconsistencies; any plan with at least one scannable file can be split.
func (e *Engine) SplitForCF(node plan.Node, queryID string, parts int) (*CFSplit, error) {
	return e.split(node, queryID, parts, false)
}

// split decomposes a plan into `parts` tasks. shared says whether the tasks
// share memory, so a worker fragment may hold a left-deep join chain whose
// builds the caller prepares once for every task; only the in-process
// parallel VM path can. The shapes are tried most-specific first: partial
// aggregation (over such a chain where shared), worker top-N for ORDER BY
// + LIMIT, whole-join pushdown, and finally pushdown of the largest scan
// alone.
func (e *Engine) split(node plan.Node, queryID string, parts int, shared bool) (*CFSplit, error) {
	if parts < 1 {
		parts = 1
	}
	split := &CFSplit{QueryID: queryID}

	agg, joins, aggCount := analyze(node)
	scans := plan.Scans(node)
	if len(scans) == 0 {
		return nil, fmt.Errorf("engine: plan has no scans to push down")
	}

	done := false
	if agg != nil && aggCount == 1 && !hasDistinctAgg(agg) {
		if probe, ok := pushableFragment(agg.Child, shared); ok {
			if err := e.splitPartialAgg(split, node, agg, probe); err != nil {
				return nil, err
			}
			done = true
		}
	}
	if !done {
		if topn := topNShape(node); topn != nil {
			if probe, ok := pushableFragment(topn.Child, shared); ok {
				e.splitTopN(split, node, topn, probe)
				done = true
			}
		}
	}
	if !done && shared && joins >= 1 {
		// Every join sits below pushdownRoot, so a pushable fragment
		// holds the chain.
		frag := pushdownRoot(node)
		if probe, ok := pushableFragment(frag, true); ok {
			e.splitJoinProbe(split, node, frag, probe)
			done = true
		}
	}
	if !done {
		e.splitScanPushdown(split, node, scans)
	}

	if len(split.partScan.Table.Files) == 0 {
		return nil, fmt.Errorf("engine: table %s has no files", split.partScan.Table.Name)
	}
	split.partition(parts)
	return split, nil
}

// partition sets the split's tasks to `parts` contiguous file ranges of the
// partitioned scan (fewer when the table has fewer files), sizes differing
// by at most one file. Contiguity matters beyond balance: consuming task
// outputs in partition order then reproduces the serial plan's arrival
// order exactly, so sort ties, top-N cutoffs and group first-appearance
// orders resolve identically to serial execution — not merely
// deterministically.
func (s *CFSplit) partition(parts int) {
	files := s.partScan.Table.Files
	parts = min(parts, len(files))
	s.Tasks = make([]WorkerTask, parts)
	for p := range s.Tasks {
		s.Tasks[p] = WorkerTask{Part: p, Files: files[p*len(files)/parts : (p+1)*len(files)/parts]}
	}
}

// pushableFragment reports whether subtree w can run per probe-partition in
// a worker: row-local operators (filters, projections) over either a single
// scan, which is the probe, or a left-deep chain of hash joins, allowed only
// when the tasks share their builds. Each join's build (right) side must be
// a single-scan pipeline with no join inside it; the probe is the bottom
// join's left scan, and it must be at least as large as every build side's
// table, so the partitioned scan is the dominant one.
func pushableFragment(w plan.Node, shared bool) (*plan.ScanNode, bool) {
	var buildBytes int64
	for {
		switch x := w.(type) {
		case *plan.FilterNode:
			w = x.Child
		case *plan.ProjectNode:
			w = x.Child
		case *plan.JoinNode:
			build, ok := pushableFragment(x.Right, false)
			if !shared || !ok {
				return nil, false
			}
			buildBytes = max(buildBytes, build.Table.TotalBytes())
			w = x.Left
		case *plan.ScanNode:
			return x, x.Table.TotalBytes() >= buildBytes
		default:
			return nil, false
		}
	}
}

// pushdownRoot descends through the coordinator-only operators (sort,
// limit, aggregation) to the largest subtree a worker could execute
// wholesale.
func pushdownRoot(n plan.Node) plan.Node {
	for {
		switch x := n.(type) {
		case *plan.SortNode:
			n = x.Child
		case *plan.TopNNode:
			n = x.Child
		case *plan.LimitNode:
			n = x.Child
		case *plan.AggNode:
			n = x.Child
		default:
			return n
		}
	}
}

// topNShape matches root = Limit → [hidden-sort-key trim Project] → TopN,
// the binder's ORDER BY … LIMIT, and returns the TopN, or nil.
func topNShape(root plan.Node) *plan.TopNNode {
	lim, ok := root.(*plan.LimitNode)
	if !ok {
		return nil
	}
	child := lim.Child
	if p, ok := child.(*plan.ProjectNode); ok {
		child = p.Child
	}
	topn, _ := child.(*plan.TopNNode)
	return topn
}

// analyze finds the unique AggNode (if any), the join count and agg count.
func analyze(node plan.Node) (*plan.AggNode, int, int) {
	var agg *plan.AggNode
	joins, aggs := 0, 0
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.AggNode:
			agg = x
			aggs++
		case *plan.JoinNode:
			joins++
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(node)
	return agg, joins, aggs
}

func hasDistinctAgg(a *plan.AggNode) bool {
	for _, sp := range a.Aggs {
		if sp.Distinct {
			return true
		}
	}
	// A pure group-by-all node (DISTINCT) merges correctly (dedup of
	// dedups), so it does not disqualify.
	return false
}

// splitPartialAgg builds worker partial aggregation plus coordinator final
// aggregation. probe is the scan partitioned across workers.
func (e *Engine) splitPartialAgg(split *CFSplit, root plan.Node, agg *plan.AggNode, probe *plan.ScanNode) error {
	split.Mode = SplitPartialAgg
	split.partScan = probe

	ng := len(agg.GroupBy)
	var partial []plan.AggSpec
	// fromPartial[i] lists the partial-output positions feeding original
	// agg i (two entries for AVG: sum then count).
	fromPartial := make([][]int, len(agg.Aggs))
	for i, sp := range agg.Aggs {
		switch sp.Func {
		case plan.AggCountStar, plan.AggCount:
			fromPartial[i] = []int{len(partial)}
			partial = append(partial, sp) // output INT64 count
		case plan.AggSum, plan.AggMin, plan.AggMax:
			fromPartial[i] = []int{len(partial)}
			partial = append(partial, sp)
		case plan.AggAvg:
			sum := plan.AggSpec{Func: plan.AggSum, Arg: sp.Arg, Name: sp.Name + "_sum", Ty: sumType(sp.Arg.Type())}
			cnt := plan.AggSpec{Func: plan.AggCount, Arg: sp.Arg, Name: sp.Name + "_count", Ty: col.INT64}
			fromPartial[i] = []int{len(partial), len(partial) + 1}
			partial = append(partial, sum, cnt)
		default:
			return fmt.Errorf("engine: cannot split aggregate %s", sp)
		}
	}

	split.workerPlan = &plan.AggNode{
		Child:      agg.Child,
		GroupBy:    agg.GroupBy,
		GroupNames: agg.GroupNames,
		Aggs:       partial,
	}
	wSchema := split.workerPlan.Schema()

	// Synthetic scan over worker intermediates.
	split.interm = intermScan(split.QueryID, wSchema)

	// Final aggregation over the intermediates.
	finalAgg := &plan.AggNode{Child: split.interm}
	for i := 0; i < ng; i++ {
		f := wSchema.Fields[i]
		finalAgg.GroupBy = append(finalAgg.GroupBy, derived(i, f))
		finalAgg.GroupNames = append(finalAgg.GroupNames, f.Name)
	}
	for j, sp := range partial {
		f := wSchema.Fields[ng+j]
		arg := derived(ng+j, f)
		var fn plan.AggFunc
		switch sp.Func {
		case plan.AggCountStar, plan.AggCount, plan.AggSum:
			fn = plan.AggSum
		case plan.AggMin:
			fn = plan.AggMin
		case plan.AggMax:
			fn = plan.AggMax
		}
		finalAgg.Aggs = append(finalAgg.Aggs, plan.AggSpec{
			Func: fn, Arg: arg, Name: sp.Name, Ty: f.Type,
		})
	}
	fSchema := finalAgg.Schema()

	// Mapping projection reconstructing the original aggregate output.
	mapping := &plan.ProjectNode{Child: finalAgg}
	origSchema := agg.Schema()
	for i := 0; i < ng; i++ {
		mapping.Exprs = append(mapping.Exprs, derived(i, fSchema.Fields[i]))
		mapping.Names = append(mapping.Names, origSchema.Fields[i].Name)
	}
	for i, sp := range agg.Aggs {
		var ex plan.BoundExpr
		if sp.Func == plan.AggAvg {
			sumPos, cntPos := ng+fromPartial[i][0], ng+fromPartial[i][1]
			ex = &plan.BBinary{
				Op: "/",
				L:  derived(sumPos, fSchema.Fields[sumPos]),
				R:  derived(cntPos, fSchema.Fields[cntPos]),
				Ty: col.FLOAT64,
			}
		} else {
			// COUNT merged via SUM can yield NULL only if no partials
			// exist, which cannot happen (workers always emit).
			pos := ng + fromPartial[i][0]
			ex = derived(pos, fSchema.Fields[pos])
		}
		mapping.Exprs = append(mapping.Exprs, ex)
		mapping.Names = append(mapping.Names, origSchema.Fields[ng+i].Name)
	}

	split.mergePlan = replaceNode(root, agg, mapping)
	return nil
}

func sumType(t col.Type) col.Type {
	if t == col.FLOAT64 {
		return col.FLOAT64
	}
	return col.INT64
}

func derived(ordinal int, f col.Field) *plan.BCol {
	return &plan.BCol{
		Rel: plan.DerivedRel, Ordinal: ordinal,
		Name: f.Name, Ty: f.Type, Nullable: f.Nullable,
	}
}

// splitTopN makes the plan's bounded sort the worker plan, so each worker
// returns at most LIMIT+OFFSET rows of its partition, and leaves the same
// bounded sort over the k·N survivors in the merge plan, which reads them
// in partition order and applies the limit and offset.
func (e *Engine) splitTopN(split *CFSplit, root plan.Node, topn *plan.TopNNode, probe *plan.ScanNode) {
	split.Mode = SplitTopN
	split.partScan = probe
	split.workerPlan = topn
	split.interm = intermScan(split.QueryID, topn.Schema())
	split.mergePlan = replaceNode(root, topn.Child, split.interm)
}

// splitJoinProbe pushes a whole join chain into the workers: the probe
// side's files are partitioned, the coordinator prepares each shared build
// side once, and whatever sits above the fragment (sort, limit,
// non-splittable aggregation) merges the joined stream.
func (e *Engine) splitJoinProbe(split *CFSplit, root, frag plan.Node, probe *plan.ScanNode) {
	split.Mode = SplitJoinProbe
	split.partScan = probe
	split.workerPlan = frag
	split.interm = intermScan(split.QueryID, frag.Schema())
	split.mergePlan = replaceNode(root, frag, split.interm)
}

// splitScanPushdown pushes the largest scan into workers.
func (e *Engine) splitScanPushdown(split *CFSplit, root plan.Node, scans []*plan.ScanNode) {
	split.Mode = SplitScanPushdown
	largest := scans[0]
	for _, s := range scans[1:] {
		if s.Table.TotalBytes() > largest.Table.TotalBytes() {
			largest = s
		}
	}
	split.partScan = largest
	split.workerPlan = largest
	split.interm = intermScan(split.QueryID, largest.Schema())
	split.mergePlan = replaceNode(root, largest, split.interm)
}

// intermScan builds a synthetic scan node over worker output files.
func intermScan(queryID string, schema *col.Schema) *plan.ScanNode {
	t := &catalog.Table{Name: "_interm_" + queryID}
	for _, f := range schema.Fields {
		t.Columns = append(t.Columns, catalog.Column{Name: f.Name, Type: f.Type, Nullable: true})
	}
	return &plan.ScanNode{
		DB:      "_intermediate",
		Table:   t,
		Binding: t.Name,
		Rel:     0,
		Cols:    identity(schema.Len()),
	}
}

// replaceNode returns a copy of the tree with old swapped for repl. Nodes
// outside the root→old path are shared.
func replaceNode(n, old, repl plan.Node) plan.Node {
	if n == old {
		return repl
	}
	switch x := n.(type) {
	case *plan.ScanNode:
		return x
	case *plan.FilterNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.ProjectNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.JoinNode:
		cp := *x
		cp.Left = replaceNode(x.Left, old, repl)
		cp.Right = replaceNode(x.Right, old, repl)
		return &cp
	case *plan.AggNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.SortNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.TopNNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.LimitNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	default:
		panic(fmt.Sprintf("engine: replaceNode unknown node %T", n))
	}
}
