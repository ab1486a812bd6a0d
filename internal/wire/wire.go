// Package wire is the remote-dispatch serialization layer: a compact,
// deterministic, versioned binary codec for the sharded pipeline's work
// units (a sink subset plus a frozen registry snapshot and the
// remote-relevant subset of core.Options, inbound) and for built subtrees
// (nodes, delay sets, stats, registry state, outbound). The codec's
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
// The format is at Version 7, which changed only the seal: Version 6 sealed
// with an 8-byte FNV-64a trailer. A tree travels as pre-order node records
// (geometry, delay sets, deferred state) with no snaking-handle records:
// routers recompute handles from the subtree when they need them. Run stats
// travel field by field, so any change to core.Stats' fields changes the
// layout, and so does any change to the core.Options fields encodeOptions
// writes: Model, IntraSkewBound, InterSkewBound, SingleGroup, Strategy,
// Pairer, EndpointSplit and GroupOffsets. A result carries the subtree, its
// stats and the worker's registry; the coordinator measures wire from the
// subtree itself. Work units, results and ECO cache files of any other
// version fail the check with ErrVersion. A decoded tree lives in one node
// slab, its nodes' Groups and Delay slices cut, capacity-capped, from shared
// chunks: appending to one node's slice never writes into another's.
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

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/order"
	"repro/internal/rctree"
)

// Version tags the wire format. Bump on any layout change; decoders reject
// other versions outright rather than guessing.
const Version uint16 = 7

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
	// KindBuild is a shard sub-build: BuildSubtree over the sink subset.
	KindBuild = 1
	// KindPatch is a pilot patch: BuildSubtree over the sample followed by
	// a single-root MergeRoots, which commits the patch root's offsets.
	KindPatch = 2
)

// Defensive decode limits. These bound allocations against adversarial
// counts; real payloads sit far below them.
const (
	maxNameLen = 4096
	// minimum encoded bytes per repeated element, used to bound counts
	// against the remaining payload before allocating.
	minSinkBytes  = 25 // 3 floats + group varint
	minNodeBytes  = 77 // flags, ID, 7 floats, 2 counts, delay flag, location
	minEntryBytes = 8
	minGroupBytes = 9 // registry parent varint + offset float
	// minTreeGroupBytes is what a group held by a tree node adds to the
	// node's record: a varint in Groups and a delay entry (varint and two
	// floats), since a node's delay groups mirror its Groups.
	minTreeGroupBytes = 18
)

// WorkUnit is one remote task: route SinkIDs of Instance under Opt against
// a private registry reconstructed from Registry.
type WorkUnit struct {
	Kind     int
	Instance *ctree.Instance
	SinkIDs  []int
	Opt      core.Options
	Registry core.RegistrySnapshot
}

// BuildResult is a worker's product: the built (unembedded) subtree, its
// stats, and the worker-side registry's final state (the offsets the
// sub-build committed, which the coordinator reads back).
type BuildResult struct {
	Root     *ctree.Node
	Stats    core.Stats
	Registry core.RegistrySnapshot
}

// EncodeWork serializes a work unit. It errors on options the format cannot
// carry faithfully (closure-valued order overrides, non-Elmore models,
// nested sharding) rather than silently dropping them.
func (u *WorkUnit) Encode() ([]byte, error) {
	if u.Instance == nil {
		return nil, fmt.Errorf("wire: work unit without instance")
	}
	if u.Kind != KindBuild && u.Kind != KindPatch {
		return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
	}
	size := headerLen + 1 + optionsLen(u.Opt) + snapshotLen(u.Registry) +
		instanceLen(u.Instance) + uvLen(uint64(len(u.SinkIDs))) + sealLen
	for _, id := range u.SinkIDs {
		size += uvLen(uint64(id))
	}
	w := newWriter(magicWork, size)
	w.u8(byte(u.Kind))
	if err := encodeOptions(w, u.Opt); err != nil {
		return nil, err
	}
	encodeSnapshot(w, u.Registry)
	encodeInstance(w, u.Instance)
	w.uv(uint64(len(u.SinkIDs)))
	for _, id := range u.SinkIDs {
		if id < 0 || id >= len(u.Instance.Sinks) {
			return nil, fmt.Errorf("wire: sink id %d out of range", id)
		}
		w.uv(uint64(id))
	}
	return w.seal(), nil
}

// DecodeWork parses and validates a work unit: magic, version and seal first,
// then every count and index against the instance, and the registry
// snapshot through the same forest validation the executor will apply.
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
	u.Instance, err = decodeInstance(r)
	if err != nil {
		return nil, err
	}
	n := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n > len(u.Instance.Sinks) {
		return nil, fmt.Errorf("wire: %d sink ids for %d sinks", n, len(u.Instance.Sinks))
	}
	if n > 0 {
		u.SinkIDs = make([]int, n)
		seen := make([]bool, len(u.Instance.Sinks))
		for i := range u.SinkIDs {
			id := int(r.uv())
			if r.err != nil {
				return nil, r.err
			}
			if id < 0 || id >= len(u.Instance.Sinks) {
				return nil, fmt.Errorf("wire: sink id %d out of range", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("wire: duplicate sink id %d", id)
			}
			seen[id] = true
			u.SinkIDs[i] = id
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(u.Registry); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if len(u.Registry.Parent) != u.Instance.NumGroups {
		return nil, fmt.Errorf("wire: registry over %d groups for instance with %d",
			len(u.Registry.Parent), u.Instance.NumGroups)
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
	for _, n := range nodes {
		size += nodeLen(n)
	}
	w := newWriter(magicResult, size)
	w.uv(uint64(len(nodes)))
	for _, n := range nodes {
		if err := encodeNode(w, n); err != nil {
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
// from (leaf nodes resolve their sink pointers into it).
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
		for _, f := range []float64{s.Loc.X, s.Loc.Y, s.CapFF} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("wire: non-finite coordinate on sink %d", i)
			}
		}
	}
	if math.IsNaN(in.Source.X) || math.IsInf(in.Source.X, 0) ||
		math.IsNaN(in.Source.Y) || math.IsInf(in.Source.Y, 0) {
		return nil, fmt.Errorf("wire: non-finite source location")
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return in, nil
}

// ---- node tree ----

// Node record flags.
const (
	nodeLeaf     = 1 << 0
	nodePlaced   = 1 << 1
	nodeDeferred = 1 << 2
)

// preorder collects the subtree's nodes in pre-order, checking its shape:
// the records are written in this order, so the format needs no pointers and
// decoding needs no recursion, and the record count leads them.
func preorder(root *ctree.Node) ([]*ctree.Node, error) {
	seen := map[*ctree.Node]bool{}
	var nodes []*ctree.Node
	stack := []*ctree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			return nil, fmt.Errorf("wire: nil node in tree")
		}
		if seen[n] {
			return nil, fmt.Errorf("wire: node %d appears twice in tree", n.ID)
		}
		seen[n] = true
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

// nodeLen is the length of n's record as encodeNode writes it.
func nodeLen(n *ctree.Node) int {
	l := 1 + ivLen(int64(n.ID)) + 7*8 + uvLen(uint64(len(n.Groups))) +
		1 + uvLen(uint64(len(n.Delay.Groups))) + 16*len(n.Delay.Groups) + 16
	if n.IsLeaf() {
		l += uvLen(uint64(n.Sink.ID))
	}
	for _, g := range n.Groups {
		l += ivLen(int64(g))
	}
	for _, g := range n.Delay.Groups {
		l += ivLen(int64(g))
	}
	if n.Deferred {
		l += 11 * 8
	}
	return l
}

func encodeNode(w *writer, n *ctree.Node) error {
	var flags byte
	if n.IsLeaf() {
		flags |= nodeLeaf
	}
	if n.Placed {
		flags |= nodePlaced
	}
	if n.Deferred {
		flags |= nodeDeferred
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
	w.uv(uint64(len(n.Groups)))
	for _, g := range n.Groups {
		w.iv(int64(g))
	}
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
	w.f64(n.Loc.U)
	w.f64(n.Loc.V)
	if flags&nodeDeferred != 0 {
		w.f64(n.DefD)
		w.f64(n.DefELo)
		w.f64(n.DefEHi)
		for _, f := range []float64{n.DefRegion.ULo, n.DefRegion.UHi, n.DefRegion.VLo, n.DefRegion.VHi,
			n.DefRegion.SLo, n.DefRegion.SHi, n.DefRegion.TLo, n.DefRegion.THi} {
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

// treeChunks back one decoded tree's Groups and Delay slices.
type treeChunks struct {
	groups chunk[int]
	delays chunk[int32]
	ivs    chunk[rctree.Interval]
}

// decodeTree reconstructs the pre-order into one node slab, iteratively (a
// stack of open internal nodes, never the goroutine stack — adversarially
// deep chains cannot overflow it). The payload past the records' minimum
// bounds the groups the nodes hold, so the chunks start at that many
// entries and a real tree fits in them.
func decodeTree(r *reader, in *ctree.Instance) (*ctree.Node, error) {
	count := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if count <= 0 || count > r.remaining()/minNodeBytes+1 {
		return nil, fmt.Errorf("wire: node count %d exceeds payload", count)
	}
	nodes := make([]ctree.Node, count)
	groups := max(r.remaining()-count*minNodeBytes, 0) / minTreeGroupBytes
	c := treeChunks{
		groups: chunk[int]{make([]int, 0, groups)},
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
	return &nodes[0], nil
}

// decodeNode fills the zero node n from its record.
func decodeNode(r *reader, in *ctree.Instance, n *ctree.Node, c *treeChunks) error {
	flags := r.u8()
	if r.err != nil {
		return r.err
	}
	if flags&^(nodeLeaf|nodePlaced|nodeDeferred) != 0 {
		return fmt.Errorf("wire: node record with unknown flags %#x", flags)
	}
	n.ID = int(r.iv())
	if flags&nodeLeaf != 0 {
		sid := int(r.uv())
		if r.err != nil {
			return r.err
		}
		if sid < 0 || sid >= len(in.Sinks) {
			return fmt.Errorf("wire: leaf sink id %d out of range", sid)
		}
		n.Sink = &in.Sinks[sid]
	}
	n.EdgeL = r.f64()
	n.EdgeR = r.f64()
	n.Region = geom.Rect{ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64()}
	n.Cap = r.f64()
	ng := int(r.uv())
	if r.err != nil {
		return r.err
	}
	if ng < 0 || ng > r.remaining() {
		return fmt.Errorf("wire: group count %d exceeds payload", ng)
	}
	if ng > 0 {
		n.Groups = c.groups.take(ng)
		for i := range n.Groups {
			n.Groups[i] = int(r.iv())
			if i > 0 && r.err == nil && n.Groups[i] <= n.Groups[i-1] {
				return fmt.Errorf("wire: node %d groups not ascending", n.ID)
			}
		}
	}
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
			if g < math.MinInt32 || g > math.MaxInt32 {
				return fmt.Errorf("wire: delay group %d out of int32 range", g)
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
	n.Loc = geom.UV{U: r.f64(), V: r.f64()}
	n.Placed = flags&nodePlaced != 0
	if flags&nodeDeferred != 0 {
		n.Deferred = true
		n.DefD = r.f64()
		n.DefELo = r.f64()
		n.DefEHi = r.f64()
		n.DefRegion = geom.Octagon{
			ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64(),
			SLo: r.f64(), SHi: r.f64(), TLo: r.f64(), THi: r.f64(),
		}
	}
	return r.err
}
