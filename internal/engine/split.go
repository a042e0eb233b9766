package engine

import (
	"fmt"
	"math"

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
// JoinProbe pushes a whole single-join pipeline into the workers,
// partitioning the probe side while the coordinator prepares one shared
// build table; TopN replaces a worker-side ORDER BY + LIMIT with a bounded
// top-N so each worker returns at most N rows.
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

// SplitOptions carries the one thing a decomposition depends on besides
// the plan: whether its tasks will share memory.
type SplitOptions struct {
	// SharedJoinBuild allows splits whose worker fragment contains the
	// plan's single hash join: the coordinator evaluates the (smaller)
	// build side exactly once and shares the immutable hash table across
	// all probe workers. Only the in-process parallel VM path can honor
	// this — NewWorkerRequest rejects such splits, because a worker process
	// would have to rebuild (and re-bill) the build side per task.
	SharedJoinBuild bool
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
	// buildJoin, when set, is the join inside workerPlan whose build
	// (right) side must be evaluated once by the coordinator and shared
	// across workers (SplitOptions.SharedJoinBuild).
	buildJoin *plan.JoinNode
	// sortedMerge/mergeKeys, set for top-N splits, are the merge plan with
	// the coordinator SortNode elided: every task's output — a worker
	// channel on the VM, an intermediate file on the CF path — is already
	// sorted under mergeKeys, so mergeSplit feeds sortedMerge the k outputs
	// through a streaming k-way merge and the coordinator never re-sorts
	// the k·N survivors. mergePlan (sort kept) only answers drainsFully.
	sortedMerge plan.Node
	mergeKeys   []plan.SortKey
}

// SplitForCF decomposes a bound plan into `parts` CF worker tasks: every
// shape except a shared join build, which cannot cross a process boundary.
// It returns an error only on internal inconsistencies; any plan with at
// least one scannable file can be split.
func (e *Engine) SplitForCF(node plan.Node, queryID string, parts int) (*CFSplit, error) {
	return e.SplitForCFOpts(node, queryID, parts, SplitOptions{})
}

// SplitForCFOpts is SplitForCF with explicit decomposition options. The
// shapes are tried most-specific first: partial aggregation (optionally
// over a shared-build join), worker top-N for ORDER BY + LIMIT, whole-join
// pushdown, and finally pushdown of the largest scan alone.
func (e *Engine) SplitForCFOpts(node plan.Node, queryID string, parts int, opts SplitOptions) (*CFSplit, error) {
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
		if join, probe, ok := pushableFragment(agg.Child, opts.SharedJoinBuild); ok {
			if err := e.splitPartialAgg(split, node, agg, probe, join); err != nil {
				return nil, err
			}
			done = true
		}
	}
	if !done {
		if lim, srt, frag := topNShape(node); frag != nil {
			if join, probe, ok := pushableFragment(frag, opts.SharedJoinBuild); ok {
				e.splitTopN(split, node, lim, srt, probe, join)
				done = true
			}
		}
	}
	if !done && opts.SharedJoinBuild && joins == 1 {
		frag := pushdownRoot(node)
		if join, probe, ok := pushableFragment(frag, true); ok && join != nil {
			e.splitJoinProbe(split, node, frag, probe, join)
			done = true
		}
	}
	if !done {
		e.splitScanPushdown(split, node, scans)
	}

	// Worker goroutines share the plan nodes; force every lazy Schema()
	// cache now so they never race on it.
	warmSchemas(split.workerPlan)
	warmSchemas(split.mergePlan)
	if split.sortedMerge != nil {
		warmSchemas(split.sortedMerge)
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

// warmSchemas forces the lazy Schema() caches throughout a (sub)plan before
// it is shared across worker goroutines.
func warmSchemas(n plan.Node) {
	n.Schema()
	for _, c := range n.Children() {
		warmSchemas(c)
	}
}

// pushableFragment reports whether subtree w can run per probe-partition in
// a worker: it must be a row-local pipeline (scans, filters, projections)
// containing at most one hash join. With no join, the fragment's single
// scan is the probe. With one join — allowed only when the caller can share
// one build side across workers — the probe is the single scan under the
// join's left input, and it must be at least as large as the build side's
// table so the partitioned scan is the dominant one.
func pushableFragment(w plan.Node, sharedJoin bool) (*plan.JoinNode, *plan.ScanNode, bool) {
	var join *plan.JoinNode
	ok := true
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if !ok {
			return
		}
		switch x := n.(type) {
		case *plan.ScanNode, *plan.FilterNode, *plan.ProjectNode:
		case *plan.JoinNode:
			if join != nil {
				ok = false
				return
			}
			join = x
		default:
			ok = false
			return
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(w)
	if !ok {
		return nil, nil, false
	}
	if join == nil {
		if scans := plan.Scans(w); len(scans) == 1 {
			return nil, scans[0], true
		}
		return nil, nil, false
	}
	if !sharedJoin {
		return nil, nil, false
	}
	probeScans := plan.Scans(join.Left)
	if len(probeScans) != 1 {
		return nil, nil, false
	}
	probe := probeScans[0]
	buildScans := plan.Scans(join.Right)
	if len(buildScans) != 1 {
		return nil, nil, false
	}
	if probe.Table.TotalBytes() < buildScans[0].Table.TotalBytes() {
		return nil, nil, false
	}
	return join, probe, true
}

// pushdownRoot descends through the coordinator-only operators (sort,
// limit, aggregation) to the largest subtree a worker could execute
// wholesale.
func pushdownRoot(n plan.Node) plan.Node {
	for {
		switch x := n.(type) {
		case *plan.SortNode:
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

// topNShape matches root = Limit(Sort(frag)) — allowing the hidden-sort-key
// trim projection between the two — and returns the pieces, or nils.
// LIMIT+OFFSET combinations that would overflow the per-worker bound fall
// back to the ordinary split (the bound would be meaningless anyway).
func topNShape(root plan.Node) (*plan.LimitNode, *plan.SortNode, plan.Node) {
	lim, ok := root.(*plan.LimitNode)
	if !ok || lim.Limit < 0 || lim.Offset > math.MaxInt64-lim.Limit {
		return nil, nil, nil
	}
	child := lim.Child
	if p, ok := child.(*plan.ProjectNode); ok {
		child = p.Child
	}
	srt, ok := child.(*plan.SortNode)
	if !ok {
		return nil, nil, nil
	}
	return lim, srt, srt.Child
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
// aggregation. probe is the scan partitioned across workers; join, when
// non-nil, is the fragment's shared-build join below the aggregation.
func (e *Engine) splitPartialAgg(split *CFSplit, root plan.Node, agg *plan.AggNode, probe *plan.ScanNode, join *plan.JoinNode) error {
	split.Mode = SplitPartialAgg
	split.partScan = probe
	split.buildJoin = join

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

// splitTopN replaces the plan's ORDER BY + LIMIT with a per-worker bounded
// top-N over the sort's input: each worker returns at most LIMIT+OFFSET
// rows (sorted), and the coordinator k-way-merges the k·N survivors and
// applies the limit and offset.
func (e *Engine) splitTopN(split *CFSplit, root plan.Node, lim *plan.LimitNode, srt *plan.SortNode, probe *plan.ScanNode, join *plan.JoinNode) {
	split.Mode = SplitTopN
	split.partScan = probe
	split.buildJoin = join
	topn := &plan.TopNNode{Child: srt.Child, Keys: srt.Keys, N: lim.Limit + lim.Offset}
	split.workerPlan = topn
	split.interm = intermScan(split.QueryID, topn.Schema())
	split.mergePlan = replaceNode(root, srt.Child, split.interm)
	// Worker outputs arrive pre-sorted, so the coordinator skips the
	// SortNode entirely and k-way-merges instead.
	split.sortedMerge = replaceNode(root, srt, split.interm)
	split.mergeKeys = srt.Keys
}

// splitJoinProbe pushes a whole single-join pipeline into the workers: the
// probe side's files are partitioned, the coordinator prepares the shared
// build side once, and whatever sits above the fragment (sort, limit,
// non-splittable aggregation) merges the joined stream.
func (e *Engine) splitJoinProbe(split *CFSplit, root, frag plan.Node, probe *plan.ScanNode, join *plan.JoinNode) {
	split.Mode = SplitJoinProbe
	split.partScan = probe
	split.buildJoin = join
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
