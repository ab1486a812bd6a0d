// Package wire is the remote-dispatch serialization layer: a compact,
// deterministic, versioned binary codec for the sharded pipeline's work
// units (the sinks a sub-build routes plus a frozen registry snapshot and
// the remote-relevant subset of core.Options, inbound) and for built
// subtrees (nodes, delay sets, stats, registry state, outbound). The codec's
// contract is the pipeline's determinism contract made portable: decoding
// an encoding reproduces the value bitwise — floats travel as their IEEE
// bit patterns and are never recomputed — so a sub-build executed by a
// remote worker is indistinguishable from the in-process build, byte for
// byte. Every message opens with a magic tag and a format version and ends
// with a 4-byte CRC-32C seal (the Castagnoli polynomial, which hash/crc32
// computes in hardware on amd64 and arm64). A decoder checks them in that
// order: magic, then version, then seal, so a message of another version
// fails with ErrVersion whatever its trailer. Decoders are defensive end to
// end (bounds-checked counts, no panics on arbitrary input), so a corrupted
// or malicious payload yields an error, never a crash — the dispatch layer
// classifies such errors as transient and re-dispatches.
//
// The format is at Version 10. A work unit carries the sinks it routes, in
// routing order, each as its instance id, location, load and group, plus
// the instance's group count and clock source: nothing else of the
// instance. A worker allocates for the sinks it was sent and no more, and
// checks their ids in range (an int32, as a frozen subtree stores them) and
// unique with no instance-sized table.
//
// A tree travels as pre-order node records with no snaking-handle records:
// routers recompute handles from the subtree when they need them. A
// canonical leaf, bitwise the ctree.Leaf that core's builder makes from its
// sink (its point as region, its load as cap, delay set {g: [+0, +0]} for
// one group g, ID the sink's, every other field zero), travels as a compact
// record, its sink id and g, and DecodeResult rebuilds it with ctree.Leaf
// from the coordinator's instance, the leaves of one group sharing one
// delay set as the builder's do. Which leaves are canonical is
// ctree.(*Node).IsCanonicalLeaf's to say, beside the Node type it checks
// field by field. Every other node travels as a full record: ID, a leaf's
// sink id, edges, region, cap and the delay set, whose groups are the
// node's, with Loc only when it is set. A deferred node's record is a full
// record followed by its open split (split wire, split range and octagonal
// locus) and carries no group list either: the decoder rebuilds the
// ctree.Deferral with ctree.NewDeferral from the node's children, as core's
// merge makes it. Only the root may be deferred, and only an internal one,
// since core defers only the roots of active subtrees; a result with a
// deferred leaf or a deferred node below its root fails to decode. A
// result's node count is bounded by the payload and by 2n − 1 over the
// coordinator's n-sink instance, and every group a record names must be
// one of that instance's.
//
// Run stats travel field by field, so any change to core.Stats' fields
// changes the layout, and so does any change to the core.Options fields
// encodeOptions writes: Model, IntraSkewBound, InterSkewBound, SingleGroup,
// Strategy, Pairer, EndpointSplit and GroupOffsets. A result carries the
// subtree, its stats and the worker's registry; the coordinator measures
// wire from the subtree itself. Work units, results and ECO cache files of
// any other version fail the check with ErrVersion. A decoded tree lives in
// one node slab, its nodes' delay-set slices cut, capacity-capped, from
// shared chunks: appending to one node's slice never writes into another's.
//
// Observation does not travel: Options.Trace and Options.Ctx are
// deliberately not encoded (a worker build runs untraced; the coordinator
// owns tracing and cancellation).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/order"
	"repro/internal/rctree"
)

// Version tags the wire format. Bump on any layout change; decoders reject
// other versions outright rather than guessing.
const Version uint16 = 10

// ErrVersion marks a message written by a build that speaks another
// Version; errors.Is recognizes it through the decoders' wrapping.
var ErrVersion = errors.New("wire: format version mismatch")

// Message magic tags (work unit vs result), so one can never decode as the
// other.
var (
	magicWork   = [4]byte{'A', 'S', 'T', 'W'}
	magicResult = [4]byte{'A', 'S', 'T', 'R'}
)

// Work-unit kinds.
const (
	// KindBuild is a shard sub-build: BuildSubtree over the unit's sinks.
	KindBuild = 1
	// KindPatch is a pilot patch: BuildSubtree over the sample followed by
	// a single-root MergeRoots, which commits the patch root's offsets.
	KindPatch = 2
)

// Defensive decode limits. These bound allocations against adversarial
// counts; real payloads sit far below them.
const (
	maxNameLen = 4096
	// maxSinkID is the largest sink id a unit may carry: ctree.Frozen
	// stores sink ids as int32.
	maxSinkID = math.MaxInt32
	// maxTreeNodes is the most nodes a result carries: a sub-build over
	// at most maxSinkID + 1 sinks has at most 2·maxSinkID + 1 nodes.
	maxTreeNodes = 2*maxSinkID + 1
	// minimum encoded bytes per repeated element, used to bound counts
	// against the remaining payload before allocating.
	minSinkBytes = 25 // 3 floats + group varint
	// minNodeBytes is a full node record's least: flags, ID, 7 floats,
	// the delay flag and the delay count.
	minNodeBytes = 60
	// minLeafBytes is a compact leaf record's: flags, sink id, group.
	minLeafBytes  = 3
	minEntryBytes = 8
	minGroupBytes = 9 // registry parent varint + offset float
	// minTreeGroupBytes is what a group held by a full record adds to it:
	// a delay entry, a varint and two floats.
	minTreeGroupBytes = 17
)

// WorkUnit is one remote task: route Sinks, sinks of an instance with
// NumGroups groups and its clock source at Source, under Opt against a
// private registry reconstructed from Registry.
type WorkUnit struct {
	Kind int
	// Sinks are the sinks the unit routes, in routing order, each with its
	// instance id as ID. In process they point into the instance, so the
	// routed leaves do too; a decoded unit's point into one slice of its
	// own that holds only them.
	Sinks     []*ctree.Sink
	NumGroups int
	Source    geom.Point
	Opt       core.Options
	Registry  core.RegistrySnapshot
}

// BuildResult is a worker's product: the built (unembedded) subtree, its
// stats, and the worker-side registry's final state (the offsets the
// sub-build committed, which the coordinator reads back).
type BuildResult struct {
	Root     *ctree.Node
	Stats    core.Stats
	Registry core.RegistrySnapshot
}

// Encode serializes a work unit. It errors on options the format cannot
// carry faithfully (closure-valued order overrides, non-Elmore models,
// nested sharding) and on sinks a decoder would refuse, rather than
// silently dropping them.
func (u *WorkUnit) Encode() ([]byte, error) {
	if u.Kind != KindBuild && u.Kind != KindPatch {
		return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
	}
	if len(u.Sinks) == 0 {
		return nil, fmt.Errorf("wire: work unit without sinks")
	}
	if u.NumGroups <= 0 {
		return nil, fmt.Errorf("wire: work unit over %d groups", u.NumGroups)
	}
	size := headerLen + 1 + optionsLen(u.Opt) + snapshotLen(u.Registry) +
		uvLen(uint64(u.NumGroups)) + 16 + uvLen(uint64(len(u.Sinks))) + sealLen
	for _, s := range u.Sinks {
		if s == nil {
			return nil, fmt.Errorf("wire: work unit with a nil sink")
		}
		if s.ID < 0 || s.ID > maxSinkID {
			return nil, fmt.Errorf("wire: sink id %d out of range", s.ID)
		}
		if s.Group < 0 || s.Group >= u.NumGroups {
			return nil, fmt.Errorf("wire: sink %d in group %d of %d", s.ID, s.Group, u.NumGroups)
		}
		size += uvLen(uint64(s.ID)) + 24 + uvLen(uint64(s.Group))
	}
	w := newWriter(magicWork, size)
	w.u8(byte(u.Kind))
	if err := encodeOptions(w, u.Opt); err != nil {
		return nil, err
	}
	encodeSnapshot(w, u.Registry)
	w.uv(uint64(u.NumGroups))
	w.f64(u.Source.X)
	w.f64(u.Source.Y)
	w.uv(uint64(len(u.Sinks)))
	for _, s := range u.Sinks {
		w.uv(uint64(s.ID))
		w.f64(s.Loc.X)
		w.f64(s.Loc.Y)
		w.f64(s.CapFF)
		w.uv(uint64(s.Group))
	}
	return w.seal(), nil
}

// DecodeWork parses and validates a work unit: magic, version and seal
// first, then the group count against the registry snapshot, the sink count
// against the payload, every sink (decodeSinks), and the snapshot through
// the same forest validation the executor will apply.
func DecodeWork(data []byte) (*WorkUnit, error) {
	r, err := open(data, magicWork)
	if err != nil {
		return nil, err
	}
	u := &WorkUnit{Kind: int(r.u8())}
	if r.err == nil && u.Kind != KindBuild && u.Kind != KindPatch {
		return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
	}
	u.Opt, err = decodeOptions(r)
	if err != nil {
		return nil, err
	}
	u.Registry = decodeSnapshot(r)
	groups := r.uv()
	u.Source = geom.Point{X: r.f64(), Y: r.f64()}
	m := r.uv()
	if r.err != nil {
		return nil, r.err
	}
	if groups == 0 || groups != uint64(len(u.Registry.Parent)) {
		return nil, fmt.Errorf("wire: registry over %d groups for instance with %d",
			len(u.Registry.Parent), groups)
	}
	u.NumGroups = int(groups)
	if !finite(u.Source.X) || !finite(u.Source.Y) {
		return nil, fmt.Errorf("wire: non-finite source location")
	}
	if m == 0 || m > uint64(r.remaining()/minSinkBytes) {
		return nil, fmt.Errorf("wire: sink count %d exceeds payload", m)
	}
	if u.Sinks, err = decodeSinks(r, int(m), u.NumGroups); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(u.Registry); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return u, nil
}

// Encode serializes a build result.
func (b *BuildResult) Encode() ([]byte, error) {
	if b.Root == nil {
		return nil, fmt.Errorf("wire: result without root")
	}
	nodes, err := preorder(b.Root)
	if err != nil {
		return nil, err
	}
	size := headerLen + uvLen(uint64(len(nodes))) + statsMaxLen + snapshotLen(b.Registry) + sealLen
	compact := make([]bool, len(nodes))
	for i, n := range nodes {
		compact[i] = isCompact(n)
		size += nodeLen(n, compact[i])
	}
	w := newWriter(magicResult, size)
	w.uv(uint64(len(nodes)))
	for i, n := range nodes {
		if err := encodeNode(w, n, compact[i]); err != nil {
			return nil, err
		}
	}
	if err := encodeStats(w, b.Stats); err != nil {
		return nil, err
	}
	encodeSnapshot(w, b.Registry)
	return w.seal(), nil
}

// DecodeResult parses a build result against the instance the work was cut
// from: leaves resolve their sink pointers into it, and compact leaves are
// rebuilt from its sinks.
func DecodeResult(data []byte, in *ctree.Instance) (*BuildResult, error) {
	if in == nil {
		return nil, fmt.Errorf("wire: decode result without instance")
	}
	r, err := open(data, magicResult)
	if err != nil {
		return nil, err
	}
	b := &BuildResult{}
	b.Root, err = decodeTree(r, in)
	if err != nil {
		return nil, err
	}
	if err := decodeStats(r, &b.Stats); err != nil {
		return nil, err
	}
	b.Registry = decodeSnapshot(r)
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(b.Registry); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return b, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ---- options ----

// encodeOptions writes the remote-relevant subset of core.Options. Trace
// and Ctx are intentionally skipped (observation stays with the
// coordinator); anything else the format cannot represent is an error.
func encodeOptions(w *writer, o core.Options) error {
	switch m := o.Model.(type) {
	case nil:
		w.u8(0)
	case rctree.Elmore:
		w.u8(1)
		w.f64(m.ROhmPerUnit)
		w.f64(m.CFFPerUnit)
	default:
		return fmt.Errorf("wire: model %q is not serializable", o.Model.Name())
	}
	if o.Shards > 0 || o.Pilot {
		return fmt.Errorf("wire: nested sharding options do not travel (Shards=%d Pilot=%v)", o.Shards, o.Pilot)
	}
	w.f64(o.IntraSkewBound)
	w.f64(o.InterSkewBound)
	w.bool(o.SingleGroup)
	w.iv(int64(o.Strategy))
	w.iv(int64(o.Pairer))
	w.bool(o.EndpointSplit)
	w.bool(o.GroupOffsets != nil)
	if o.GroupOffsets != nil {
		w.uv(uint64(len(o.GroupOffsets)))
		for _, v := range o.GroupOffsets {
			w.f64(v)
		}
	}
	return nil
}

// optionsLen bounds encodeOptions' output: the model tag and its two floats,
// two bounds, three booleans (the offsets flag among them), two varints and
// the offsets with their count.
func optionsLen(o core.Options) int {
	return 1 + 16 + 16 + 3 + 2*binary.MaxVarintLen64 + uvLen(uint64(len(o.GroupOffsets))) + 8*len(o.GroupOffsets)
}

func decodeOptions(r *reader) (core.Options, error) {
	var o core.Options
	switch k := r.u8(); {
	case r.err != nil:
	case k == 0:
	case k == 1:
		rr, c := r.f64(), r.f64()
		if r.err == nil {
			if !(rr > 0 && c > 0) || math.IsInf(rr, 0) || math.IsInf(c, 0) {
				return o, fmt.Errorf("wire: bad elmore parameters r=%v c=%v", rr, c)
			}
			o.Model = rctree.NewElmore(rr, c)
		}
	default:
		return o, fmt.Errorf("wire: unknown model tag %d", k)
	}
	o.IntraSkewBound = r.f64()
	o.InterSkewBound = r.f64()
	o.SingleGroup = r.bool()
	o.Strategy = order.Strategy(r.iv())
	o.Pairer = core.PairerMode(r.iv())
	o.EndpointSplit = r.bool()
	if r.bool() {
		ng := int(r.uv())
		if r.err != nil {
			return o, r.err
		}
		if ng < 0 || ng > r.remaining()/minEntryBytes+1 {
			return o, fmt.Errorf("wire: group-offset count %d exceeds payload", ng)
		}
		o.GroupOffsets = make([]float64, ng)
		for i := range o.GroupOffsets {
			o.GroupOffsets[i] = r.f64()
		}
	}
	if r.err != nil {
		return o, r.err
	}
	if o.Strategy != order.Multi && o.Strategy != order.Greedy {
		return o, fmt.Errorf("wire: unknown order strategy %d", o.Strategy)
	}
	if o.Pairer != core.PairerAuto && o.Pairer != core.PairerScan {
		return o, fmt.Errorf("wire: unknown pairer mode %d", o.Pairer)
	}
	for _, f := range []float64{o.IntraSkewBound, o.InterSkewBound} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return o, fmt.Errorf("wire: non-finite option value %v", f)
		}
	}
	return o, nil
}

// ---- registry snapshot ----

func encodeSnapshot(w *writer, s core.RegistrySnapshot) {
	w.uv(uint64(len(s.Parent)))
	for _, p := range s.Parent {
		w.uv(uint64(p))
	}
	for _, v := range s.Off {
		w.f64(v)
	}
	w.iv(int64(s.PreUnions))
}

func snapshotLen(s core.RegistrySnapshot) int {
	n := uvLen(uint64(len(s.Parent))) + 8*len(s.Off) + ivLen(int64(s.PreUnions))
	for _, p := range s.Parent {
		n += uvLen(uint64(p))
	}
	return n
}

// decodeSnapshot reads the raw snapshot; structural validation (forest,
// ranges) is core.NewRegistryFromSnapshot's job and the message decoders
// invoke it before returning.
func decodeSnapshot(r *reader) core.RegistrySnapshot {
	var s core.RegistrySnapshot
	n := int(r.uv())
	if r.err != nil {
		return s
	}
	if n < 0 || n > r.remaining()/minGroupBytes {
		r.fail(fmt.Errorf("wire: registry group count %d exceeds payload", n))
		return s
	}
	s.Parent = make([]int, n)
	for i := range s.Parent {
		s.Parent[i] = int(r.uv())
	}
	s.Off = make([]float64, n)
	for i := range s.Off {
		s.Off[i] = r.f64()
	}
	s.PreUnions = int(r.iv())
	return s
}

// ---- instance ----

func encodeInstance(w *writer, in *ctree.Instance) {
	w.str(in.Name)
	w.f64(in.Source.X)
	w.f64(in.Source.Y)
	w.iv(int64(in.NumGroups))
	w.uv(uint64(len(in.Sinks)))
	for i := range in.Sinks {
		s := &in.Sinks[i]
		w.f64(s.Loc.X)
		w.f64(s.Loc.Y)
		w.f64(s.CapFF)
		w.iv(int64(s.Group))
	}
}

func instanceLen(in *ctree.Instance) int {
	n := uvLen(uint64(len(in.Name))) + len(in.Name) + 16 + ivLen(int64(in.NumGroups)) +
		uvLen(uint64(len(in.Sinks))) + 24*len(in.Sinks)
	for i := range in.Sinks {
		n += ivLen(int64(in.Sinks[i].Group))
	}
	return n
}

func decodeInstance(r *reader) (*ctree.Instance, error) {
	in := &ctree.Instance{Name: r.str(maxNameLen)}
	in.Source = geom.Point{X: r.f64(), Y: r.f64()}
	in.NumGroups = int(r.iv())
	n := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || n > r.remaining()/minSinkBytes+1 {
		return nil, fmt.Errorf("wire: sink count %d exceeds payload", n)
	}
	in.Sinks = make([]ctree.Sink, n)
	for i := range in.Sinks {
		s := &in.Sinks[i]
		s.ID = i
		s.Loc = geom.Point{X: r.f64(), Y: r.f64()}
		s.CapFF = r.f64()
		s.Group = int(r.iv())
		if r.err != nil {
			return nil, r.err
		}
		if !finite(s.Loc.X) || !finite(s.Loc.Y) || !finite(s.CapFF) {
			return nil, fmt.Errorf("wire: non-finite coordinate on sink %d", i)
		}
	}
	if !finite(in.Source.X) || !finite(in.Source.Y) {
		return nil, fmt.Errorf("wire: non-finite source location")
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return in, nil
}

// ---- unit sinks ----

// decodeSinks reads a unit's m sinks into one slice of its own, checking
// each: an id in [0, maxSinkID], finite coordinates, a finite non-negative
// load and a group in [0, numGroups). The ids must be unique, which a sorted
// copy of them shows: a unit's sinks arrive in routing order, and a shard's
// routing order is Partition's coordinate order, not its ids'.
func decodeSinks(r *reader, m, numGroups int) ([]*ctree.Sink, error) {
	sinks := make([]ctree.Sink, m)
	list := make([]*ctree.Sink, m)
	ids := make([]int, m)
	for i := range sinks {
		s := &sinks[i]
		id := r.uv()
		s.Loc = geom.Point{X: r.f64(), Y: r.f64()}
		s.CapFF = r.f64()
		g := r.uv()
		if r.err != nil {
			return nil, r.err
		}
		if id > maxSinkID {
			return nil, fmt.Errorf("wire: sink id %d out of range", id)
		}
		if g >= uint64(numGroups) {
			return nil, fmt.Errorf("wire: sink %d in group %d of %d", id, g, numGroups)
		}
		if !finite(s.Loc.X) || !finite(s.Loc.Y) || !finite(s.CapFF) {
			return nil, fmt.Errorf("wire: non-finite coordinate on sink %d", id)
		}
		if s.CapFF < 0 {
			return nil, fmt.Errorf("wire: sink %d negative cap", id)
		}
		s.ID, s.Group = int(id), int(g)
		list[i], ids[i] = s, s.ID
	}
	slices.Sort(ids)
	for i := 1; i < m; i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("wire: duplicate sink id %d", ids[i])
		}
	}
	return list, nil
}

// ---- node tree ----

// Node record flags.
const (
	nodeLeaf     = 1 << 0
	nodePlaced   = 1 << 1
	nodeDeferred = 1 << 2
	// nodeSink marks a compact leaf record (with nodeLeaf, alone): the sink
	// id and group of a canonical leaf.
	nodeSink = 1 << 3
	// nodeLoc marks a full record that carries Loc; a zero Loc stays home.
	nodeLoc = 1 << 4
)

// preorder collects the subtree's nodes in pre-order, checking its shape:
// the records are written in this order, so the format needs no pointers and
// decoding needs no recursion, and the record count leads them. The walk
// keeps no visited set: a node reached twice is written twice, and decodes
// as two. A cyclic tree, which core never builds, is not detected: its walk
// stops only past maxTreeNodes.
func preorder(root *ctree.Node) ([]*ctree.Node, error) {
	var nodes []*ctree.Node
	stack := []*ctree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			return nil, fmt.Errorf("wire: nil node in tree")
		}
		if uint64(len(nodes)) == maxTreeNodes {
			return nil, fmt.Errorf("wire: tree past %d nodes, the most a result carries", uint64(maxTreeNodes))
		}
		nodes = append(nodes, n)
		if n.IsLeaf() {
			if n.Left != nil || n.Right != nil {
				return nil, fmt.Errorf("wire: leaf %d has children", n.ID)
			}
			continue
		}
		if n.Left == nil || n.Right == nil {
			return nil, fmt.Errorf("wire: internal node %d missing a child", n.ID)
		}
		// Push right first so the left subtree pops (and encodes) first —
		// records must appear in pre-order.
		stack = append(stack, n.Right, n.Left)
	}
	return nodes, nil
}

// isCompact reports whether n travels as a compact record: a canonical leaf
// (ctree.(*Node).IsCanonicalLeaf) whose sink id and group the record can
// write unsigned.
func isCompact(n *ctree.Node) bool {
	return n.IsCanonicalLeaf() && n.ID >= 0 && n.Delay.Groups[0] >= 0
}

// hasLoc reports whether n's Loc is set, bitwise: a full record carries it
// only then.
func hasLoc(n *ctree.Node) bool {
	return math.Float64bits(n.Loc.U)|math.Float64bits(n.Loc.V) != 0
}

// nodeLen is the length of n's record as encodeNode writes it, compact
// when n is a canonical leaf.
func nodeLen(n *ctree.Node, compact bool) int {
	if compact {
		return 1 + uvLen(uint64(n.Sink.ID)) + uvLen(uint64(n.Delay.Groups[0]))
	}
	l := 1 + ivLen(int64(n.ID)) + 7*8 + 1 + uvLen(uint64(len(n.Delay.Groups))) + 16*len(n.Delay.Groups)
	if n.IsLeaf() {
		l += uvLen(uint64(n.Sink.ID))
	}
	for _, g := range n.Delay.Groups {
		l += ivLen(int64(g))
	}
	if hasLoc(n) {
		l += 16
	}
	if n.Def != nil {
		l += 11 * 8
	}
	return l
}

func encodeNode(w *writer, n *ctree.Node, compact bool) error {
	if compact {
		w.u8(nodeLeaf | nodeSink)
		w.uv(uint64(n.Sink.ID))
		w.uv(uint64(n.Delay.Groups[0]))
		return nil
	}
	var flags byte
	if n.IsLeaf() {
		flags |= nodeLeaf
	}
	if n.Placed {
		flags |= nodePlaced
	}
	if n.Def != nil {
		flags |= nodeDeferred
	}
	if hasLoc(n) {
		flags |= nodeLoc
	}
	w.u8(flags)
	w.iv(int64(n.ID))
	if n.IsLeaf() {
		w.uv(uint64(n.Sink.ID))
	}
	w.f64(n.EdgeL)
	w.f64(n.EdgeR)
	w.f64(n.Region.ULo)
	w.f64(n.Region.UHi)
	w.f64(n.Region.VLo)
	w.f64(n.Region.VHi)
	w.f64(n.Cap)
	if len(n.Delay.Groups) != len(n.Delay.Ivs) {
		return fmt.Errorf("wire: node %d delay set with %d groups, %d intervals",
			n.ID, len(n.Delay.Groups), len(n.Delay.Ivs))
	}
	w.bool(!n.Delay.IsZero())
	w.uv(uint64(n.Delay.Len()))
	for i := 0; i < n.Delay.Len(); i++ {
		g, iv := n.Delay.At(i)
		w.iv(int64(g))
		w.f64(iv.Lo)
		w.f64(iv.Hi)
	}
	if flags&nodeLoc != 0 {
		w.f64(n.Loc.U)
		w.f64(n.Loc.V)
	}
	if s := n.Def; s != nil {
		w.f64(s.D)
		w.f64(s.ELo)
		w.f64(s.EHi)
		for _, f := range [...]float64{s.Region.ULo, s.Region.UHi, s.Region.VLo, s.Region.VHi,
			s.Region.SLo, s.Region.SHi, s.Region.TLo, s.Region.THi} {
			w.f64(f)
		}
	}
	return nil
}

// chunk cuts capacity-capped slices from a shared backing array, so a
// decoded tree's per-node slices cost a few allocations instead of one or
// two per node. A chunk that runs out is replaced by one at least twice its
// size; the slices already cut keep the old one alive. decodeTree starts
// each chunk with a non-nil array, so no slice cut from it is nil: a decoded
// empty delay set stays non-zero.
type chunk[T any] struct{ buf []T }

func (c *chunk[T]) take(n int) []T {
	if n > cap(c.buf)-len(c.buf) {
		c.buf = make([]T, 0, max(n, 2*cap(c.buf)))
	}
	i := len(c.buf)
	c.buf = c.buf[:i+n]
	return c.buf[i : i+n : i+n]
}

// treeChunks back one decoded tree's delay sets. leaves[g] is the delay
// set of the first compact leaf of group g, which the later ones share.
type treeChunks struct {
	delays chunk[int32]
	ivs    chunk[rctree.Interval]
	leaves []rctree.DelaySet
}

// decodeTree reconstructs the pre-order into one node slab, iteratively (a
// stack of open internal nodes, never the goroutine stack — adversarially
// deep chains cannot overflow it). A tree over in's sinks has at most
// 2n − 1 nodes, and the payload bounds the count too: a full tree of k
// internal nodes takes at least k full records and k + 1 compact ones. The
// payload past those minimums bounds the groups the full records hold, so
// the chunks start at that many entries and a real tree fits in them.
func decodeTree(r *reader, in *ctree.Instance) (*ctree.Node, error) {
	count := r.uv()
	if r.err != nil {
		return nil, r.err
	}
	if count == 0 || count > 2*uint64(len(in.Sinks))-1 {
		return nil, fmt.Errorf("wire: %d nodes over an instance of %d sinks", count, len(in.Sinks))
	}
	p := r.remaining()
	if count > 2*uint64(max(p-minLeafBytes, 0)/(minNodeBytes+minLeafBytes))+1 {
		return nil, fmt.Errorf("wire: node count %d exceeds payload", count)
	}
	nodes := make([]ctree.Node, count)
	internal := (len(nodes) - 1) / 2
	groups := max(p-internal*minNodeBytes-(len(nodes)-internal)*minLeafBytes, 0) / minTreeGroupBytes
	c := treeChunks{
		delays: chunk[int32]{make([]int32, 0, groups)},
		ivs:    chunk[rctree.Interval]{make([]rctree.Interval, 0, groups)},
	}
	var open []*ctree.Node // internal nodes still missing a child
	for i := range nodes {
		n := &nodes[i]
		if i > 0 && len(open) == 0 {
			return nil, fmt.Errorf("wire: node record %d after the tree completed", i)
		}
		if err := decodeNode(r, in, n, &c); err != nil {
			return nil, err
		}
		// Only an internal root may be deferred: core defers only the roots
		// of active subtrees.
		if n.Def != nil && (i > 0 || n.IsLeaf()) {
			return nil, fmt.Errorf("wire: deferred record not at an internal root")
		}
		if i > 0 {
			top := open[len(open)-1]
			if top.Left == nil {
				top.Left = n
			} else {
				top.Right = n
				open = open[:len(open)-1]
			}
		}
		if !n.IsLeaf() {
			open = append(open, n)
		}
	}
	if len(open) > 0 {
		return nil, fmt.Errorf("wire: tree truncated, %d internal nodes missing children", len(open))
	}
	root := &nodes[0]
	if s := root.Def; s != nil {
		// The record is the root's alone so far; its group list is its
		// children's, which have now decoded.
		*s = ctree.NewDeferral(root.Left, root.Right, s.D, s.ELo, s.EHi, s.Region)
	}
	return root, nil
}

// decodeNode fills the zero node n from its record. A deferred record's
// group list is left to decodeTree, which rebuilds it from the children.
func decodeNode(r *reader, in *ctree.Instance, n *ctree.Node, c *treeChunks) error {
	flags := r.u8()
	if r.err != nil {
		return r.err
	}
	if flags == nodeLeaf|nodeSink {
		return decodeLeaf(r, in, n, c)
	}
	if flags&^(nodeLeaf|nodePlaced|nodeDeferred|nodeLoc) != 0 {
		return fmt.Errorf("wire: node record with unknown flags %#x", flags)
	}
	n.ID = int(r.iv())
	if flags&nodeLeaf != 0 {
		sid := r.uv()
		if r.err != nil {
			return r.err
		}
		if sid >= uint64(len(in.Sinks)) {
			return fmt.Errorf("wire: leaf sink id %d out of range", sid)
		}
		n.Sink = &in.Sinks[sid]
	}
	n.EdgeL = r.f64()
	n.EdgeR = r.f64()
	n.Region = geom.Rect{ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64()}
	n.Cap = r.f64()
	hasDelay := r.bool()
	nd := int(r.uv())
	if r.err != nil {
		return r.err
	}
	if nd < 0 || nd > r.remaining()/minEntryBytes+1 {
		return fmt.Errorf("wire: delay count %d exceeds payload", nd)
	}
	if hasDelay {
		n.Delay = rctree.DelaySet{Groups: c.delays.take(nd), Ivs: c.ivs.take(nd)}
		for i := 0; i < nd; i++ {
			g := r.iv()
			if r.err == nil && (g < 0 || g >= int64(in.NumGroups)) {
				return fmt.Errorf("wire: node %d delay group %d out of range", n.ID, g)
			}
			n.Delay.Groups[i] = int32(g)
			n.Delay.Ivs[i] = rctree.Interval{Lo: r.f64(), Hi: r.f64()}
			if i > 0 && r.err == nil && n.Delay.Groups[i] <= n.Delay.Groups[i-1] {
				return fmt.Errorf("wire: node %d delay groups not ascending", n.ID)
			}
		}
	} else if nd != 0 {
		return fmt.Errorf("wire: zero delay set with %d entries", nd)
	}
	if flags&nodeLoc != 0 {
		n.Loc = geom.UV{U: r.f64(), V: r.f64()}
	}
	n.Placed = flags&nodePlaced != 0
	if flags&nodeDeferred != 0 {
		n.Def = &ctree.Deferral{D: r.f64(), ELo: r.f64(), EHi: r.f64(), Region: geom.Octagon{
			ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64(),
			SLo: r.f64(), SHi: r.f64(), TLo: r.f64(), THi: r.f64(),
		}}
	}
	return r.err
}

// decodeLeaf fills n from a compact leaf record: ctree.Leaf of sink sid of
// in in group g, sharing the delay set of the first compact leaf of g.
func decodeLeaf(r *reader, in *ctree.Instance, n *ctree.Node, c *treeChunks) error {
	sid, g := r.uv(), r.uv()
	if r.err != nil {
		return r.err
	}
	if sid >= uint64(len(in.Sinks)) {
		return fmt.Errorf("wire: leaf sink id %d out of range", sid)
	}
	if g >= uint64(in.NumGroups) {
		return fmt.Errorf("wire: leaf %d group %d out of range", sid, g)
	}
	if c.leaves == nil {
		c.leaves = make([]rctree.DelaySet, in.NumGroups)
	}
	if c.leaves[g].IsZero() {
		c.leaves[g] = rctree.DelaySet{Groups: c.delays.take(1), Ivs: c.ivs.take(1)}
		c.leaves[g].Groups[0] = int32(g)
	}
	*n = ctree.Leaf(&in.Sinks[sid], c.leaves[g])
	return nil
}
