package graph

import (
	"sort"

	"secmon/internal/model"
)

// Partitioning splits the bipartite item-group graph (monitors producing
// data types) into segments connected only through a small set of cut items.
// The decomposition solver (internal/decomp) solves each segment
// independently and coordinates the cut via Lagrangian relaxation, so the
// quality target here is few cut items and balanced segment sizes, not a
// minimal cut in the graph-theoretic sense.
//
// The pipeline: union-find over groups finds connected components, oversized
// components are carved by region growing (farthest-point seeds, multi-source
// BFS), and the resulting regions are packed into at most MaxSegments
// balanced segments (longest-processing-time order). Items whose groups land
// in more than one segment are classified as cut. Everything is
// deterministic for a fixed input.

// Cut marks an item whose groups span multiple segments.
const Cut = -1

// PartitionConfig controls PartitionBipartite.
type PartitionConfig struct {
	// MaxSegments caps the number of segments produced. Values < 1 default
	// to 8.
	MaxSegments int
	// ComponentsOnly disables region-growing splits: segments are unions of
	// whole connected components and no item is ever classified as cut.
	ComponentsOnly bool
	// GroupCliques lists extra sets of group indices that must share a
	// component (e.g. the evidence of one attack, which a per-attack
	// coverage row couples). Cliques bind only at the component level;
	// region-growing may still separate clique members, so callers that
	// need cliques kept intact should set ComponentsOnly.
	GroupCliques [][]int
}

// Partition assigns items and groups to segments.
type Partition struct {
	// Segments is the number of segments (>= 1 whenever the graph is
	// non-empty).
	Segments int
	// ItemSegment maps each item to its segment, or Cut when its groups
	// span several segments.
	ItemSegment []int
	// GroupSegment maps each group to its segment. Every group belongs to
	// exactly one segment.
	GroupSegment []int
	// SegmentItems lists the non-cut items of each segment, ascending.
	SegmentItems [][]int
	// SegmentGroups lists the groups of each segment, ascending.
	SegmentGroups [][]int
	// CutItems lists the cut items, ascending.
	CutItems []int
	// Stats summarizes partition quality.
	Stats PartitionStats
}

// PartitionStats summarizes how the partition was obtained and how balanced
// it is.
type PartitionStats struct {
	// Components is the number of connected components before splitting.
	Components int
	// Splits is the number of oversized components carved by region
	// growing.
	Splits int
	// CutItems is len(Partition.CutItems).
	CutItems int
	// LargestShare is the largest segment's fraction of all items (cut
	// items excluded from the numerator).
	LargestShare float64
}

// PartitionBipartite partitions numItems items over numGroups groups, where
// groupsOf returns the (possibly empty) group indices adjacent to an item.
// Items with no groups are spread over the emptiest segments.
func PartitionBipartite(numItems, numGroups int, groupsOf func(item int) []int, cfg PartitionConfig) *Partition {
	maxSeg := cfg.MaxSegments
	if maxSeg < 1 {
		maxSeg = 8
	}

	itemGroups := make([][]int, numItems)
	groupItems := make([][]int, numGroups)
	for i := 0; i < numItems; i++ {
		gs := groupsOf(i)
		itemGroups[i] = gs
		for _, g := range gs {
			groupItems[g] = append(groupItems[g], i)
		}
	}

	// Connected components over groups: items and cliques union the groups
	// they touch.
	uf := newUnionFind(numGroups)
	for _, gs := range itemGroups {
		for i := 1; i < len(gs); i++ {
			uf.union(gs[0], gs[i])
		}
	}
	for _, clique := range cfg.GroupCliques {
		for i := 1; i < len(clique); i++ {
			uf.union(clique[0], clique[i])
		}
	}

	// Dense component ids in first-seen group order.
	compOf := make([]int, numGroups)
	compGroups := [][]int{}
	rootComp := map[int]int{}
	for g := 0; g < numGroups; g++ {
		r := uf.find(g)
		c, ok := rootComp[r]
		if !ok {
			c = len(compGroups)
			rootComp[r] = c
			compGroups = append(compGroups, nil)
		}
		compOf[g] = c
		compGroups[c] = append(compGroups[c], g)
	}
	numComps := len(compGroups)

	// Items live in the component of their first group.
	compItems := make([][]int, numComps)
	for i, gs := range itemGroups {
		if len(gs) > 0 {
			c := compOf[gs[0]]
			compItems[c] = append(compItems[c], i)
		}
	}

	// Regions start as components; oversized ones are carved by region
	// growing.
	regionOf := make([]int, numGroups)
	copy(regionOf, compOf)
	nextRegion := numComps
	splits := 0
	if !cfg.ComponentsOnly && maxSeg > 1 {
		target := (numItems + maxSeg - 1) / maxSeg
		if target < 1 {
			target = 1
		}
		scratch := newBfsScratch(numItems, numGroups)
		for c := 0; c < numComps; c++ {
			n := len(compItems[c])
			if n <= target+target/2 || len(compGroups[c]) < 2 {
				continue
			}
			k := (n + target - 1) / target
			if k > n {
				k = n
			}
			if k < 2 {
				continue
			}
			if scratch.split(compItems[c], compGroups[c], itemGroups, groupItems, k, regionOf, nextRegion) {
				splits++
			}
			nextRegion += k
		}
	}

	// Dense region ids in first-seen group order, with per-region item
	// counts (item counted at its first group) and minimum group index for
	// deterministic tie-breaks.
	denseOf := map[int]int{}
	regionGroups := [][]int{}
	for g := 0; g < numGroups; g++ {
		r := regionOf[g]
		d, ok := denseOf[r]
		if !ok {
			d = len(regionGroups)
			denseOf[r] = d
			regionGroups = append(regionGroups, nil)
		}
		regionOf[g] = d
		regionGroups[d] = append(regionGroups[d], g)
	}
	numRegions := len(regionGroups)
	regionCount := make([]int, numRegions)
	for _, gs := range itemGroups {
		if len(gs) > 0 {
			regionCount[regionOf[gs[0]]]++
		}
	}

	// Longest-processing-time packing of regions into at most maxSeg bins.
	segs := maxSeg
	if segs > numRegions {
		segs = numRegions
	}
	if segs < 1 {
		segs = 1
	}
	order := make([]int, numRegions)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		if regionCount[ra] != regionCount[rb] {
			return regionCount[ra] > regionCount[rb]
		}
		return regionGroups[ra][0] < regionGroups[rb][0]
	})
	binOf := make([]int, numRegions)
	binLoad := make([]int, segs)
	for _, r := range order {
		best := 0
		for b := 1; b < segs; b++ {
			if binLoad[b] < binLoad[best] {
				best = b
			}
		}
		binOf[r] = best
		binLoad[best] += regionCount[r]
	}

	p := &Partition{
		Segments:      segs,
		ItemSegment:   make([]int, numItems),
		GroupSegment:  make([]int, numGroups),
		SegmentItems:  make([][]int, segs),
		SegmentGroups: make([][]int, segs),
	}
	for g := 0; g < numGroups; g++ {
		s := binOf[regionOf[g]]
		p.GroupSegment[g] = s
		p.SegmentGroups[s] = append(p.SegmentGroups[s], g)
	}
	segLoad := make([]int, segs)
	var orphans []int
	for i, gs := range itemGroups {
		if len(gs) == 0 {
			orphans = append(orphans, i)
			continue
		}
		s := p.GroupSegment[gs[0]]
		cut := false
		for _, g := range gs[1:] {
			if p.GroupSegment[g] != s {
				cut = true
				break
			}
		}
		if cut {
			p.ItemSegment[i] = Cut
			p.CutItems = append(p.CutItems, i)
			continue
		}
		p.ItemSegment[i] = s
		p.SegmentItems[s] = append(p.SegmentItems[s], i)
		segLoad[s]++
	}
	// Items with no groups balance onto the emptiest segments.
	for _, i := range orphans {
		best := 0
		for s := 1; s < segs; s++ {
			if segLoad[s] < segLoad[best] {
				best = s
			}
		}
		p.ItemSegment[i] = best
		p.SegmentItems[best] = append(p.SegmentItems[best], i)
		segLoad[best]++
	}
	for s := range p.SegmentItems {
		sort.Ints(p.SegmentItems[s])
	}

	p.Stats = PartitionStats{
		Components: numComps,
		Splits:     splits,
		CutItems:   len(p.CutItems),
	}
	if numItems > 0 {
		largest := 0
		for _, n := range segLoad {
			if n > largest {
				largest = n
			}
		}
		p.Stats.LargestShare = float64(largest) / float64(numItems)
	}
	return p
}

// bfsScratch holds reusable distance/label arrays for region growing.
type bfsScratch struct {
	distItem, distGroup   []int
	labelItem, labelGroup []int
	queue                 []int // items encoded as i, groups as ^g
}

func newBfsScratch(numItems, numGroups int) *bfsScratch {
	return &bfsScratch{
		distItem:   make([]int, numItems),
		distGroup:  make([]int, numGroups),
		labelItem:  make([]int, numItems),
		labelGroup: make([]int, numGroups),
	}
}

// split carves one connected component into up to k regions by farthest-point
// seeding and multi-source BFS, rewriting regionOf for the component's groups
// to base+label. Reports whether more than one region resulted.
func (s *bfsScratch) split(items, groups []int, itemGroups, groupItems [][]int, k int, regionOf []int, base int) bool {
	seeds := []int{items[0]} // items is in ascending order by construction
	for len(seeds) < k {
		s.multiBFS(seeds, items, groups, itemGroups, groupItems)
		far, farDist := -1, 0
		for _, i := range items {
			if d := s.distItem[i]; d > farDist {
				far, farDist = i, d
			}
		}
		if far < 0 {
			break // component too tight to host another seed
		}
		seeds = append(seeds, far)
	}
	s.multiBFS(seeds, items, groups, itemGroups, groupItems)
	multi := false
	for _, g := range groups {
		regionOf[g] = base + s.labelGroup[g]
		if s.labelGroup[g] != 0 {
			multi = true
		}
	}
	return multi
}

// multiBFS runs a multi-source BFS from the seed items over the component,
// recording hop distances and the index of the nearest seed (FIFO order makes
// ties deterministic: earlier seeds win).
func (s *bfsScratch) multiBFS(seeds, items, groups []int, itemGroups, groupItems [][]int) {
	for _, i := range items {
		s.distItem[i] = -1
	}
	for _, g := range groups {
		s.distGroup[g] = -1
	}
	s.queue = s.queue[:0]
	for label, seed := range seeds {
		s.distItem[seed] = 0
		s.labelItem[seed] = label
		s.queue = append(s.queue, seed)
	}
	for head := 0; head < len(s.queue); head++ {
		node := s.queue[head]
		if node >= 0 { // item
			for _, g := range itemGroups[node] {
				if s.distGroup[g] < 0 {
					s.distGroup[g] = s.distItem[node] + 1
					s.labelGroup[g] = s.labelItem[node]
					s.queue = append(s.queue, ^g)
				}
			}
		} else { // group
			g := ^node
			for _, i := range groupItems[g] {
				if s.distItem[i] < 0 {
					s.distItem[i] = s.distGroup[g] + 1
					s.labelItem[i] = s.labelGroup[g]
					s.queue = append(s.queue, i)
				}
			}
		}
	}
}

// unionFind is a plain union-find with path halving and union by size.
type unionFind struct {
	parent, size []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// IndexPartition is a Partition over a model.Index: item i is Monitors[i],
// group g is DataTypes[g].
type IndexPartition struct {
	*Partition
	Monitors  []model.MonitorID
	DataTypes []model.DataTypeID
}

// PartitionIndex partitions an indexed system's monitor-data production
// graph: monitors are items, data types are groups. When coupleAttacks is
// true, each attack's evidence set is added as a group clique so per-attack
// coverage rows (MinCost) never straddle components; such callers should
// also set cfg.ComponentsOnly to keep cliques intact.
func PartitionIndex(idx *model.Index, coupleAttacks bool, cfg PartitionConfig) *IndexPartition {
	mons := idx.MonitorIDs()
	data := idx.DataTypeIDs()
	ints := func(ords []int32) []int {
		out := make([]int, len(ords))
		for i, o := range ords {
			out[i] = int(o)
		}
		return out
	}
	itemGroups := make([][]int, len(mons))
	for i := range mons {
		itemGroups[i] = ints(idx.MonitorData(i))
	}
	if coupleAttacks {
		cfg.GroupCliques = nil
		for _, a := range idx.AttackIDs() {
			if ao, _ := idx.AttackOrdinal(a); len(idx.AttackData(ao)) >= 2 {
				cfg.GroupCliques = append(cfg.GroupCliques, ints(idx.AttackData(ao)))
			}
		}
	}
	p := PartitionBipartite(len(mons), len(data), func(i int) []int { return itemGroups[i] }, cfg)
	return &IndexPartition{Partition: p, Monitors: mons, DataTypes: data}
}
