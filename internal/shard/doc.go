// Package shard routes an instance by spatial decomposition: partition the
// sinks into k spatially compact shards, optionally pre-commit a global
// inter-group offset contract with a pilot pass, route every shard
// concurrently with the core merge engine, then stitch the shard roots with
// the same constraint machinery the intra-shard merges use. It is the
// structural scaling step beyond sub-quadratic pairing and the parallel
// merge wave — the shape that lets one route fan out across cores today and
// across machines later (each shard build is self-contained: a sink subset
// plus a frozen registry snapshot in, a subtree out).
//
// # Partition
//
// Partition cuts the instance by recursive bisection in uv-space (the
// 45°-rotated plane all routing geometry lives in): each step splits the
// current sink set along the longer axis of its uv bounding box at the
// count quantile matching the shard-count split (area bisection of the
// occupied extent, count balance of the population), then snaps the cut to
// the widest placement gap within a small neighborhood of the quantile.
// spatial.DensityCell supplies the density scale that decides whether a gap
// is a genuine cluster boundary (gap ≥ the measured cell edge) worth
// snapping to — on power-law placements the cut then falls between
// clusters instead of through one, which is what keeps cross-shard wire
// low. Every shard is non-empty and the partition depends only on the
// instance and k.
//
// # Per-shard builds and the offset registry
//
// Sink groups are instance-global and may span shards. Each shard build
// enforces the intra-group bound over its own sinks; the relative offsets a
// shard commits between groups are recorded in a private core.Registry
// cloned from one frozen base (prescribed Options.GroupOffsets included).
// Sharing by frozen snapshot rather than by lock keeps the concurrent phase
// mutex-free and the result independent of goroutine scheduling. Offsets
// committed inside different shards may disagree; reconciliation is the
// stitch's job — unless the pilot pass already aligned them.
//
// # Pilot offset pass
//
// The thesis frames the inter-group skews S_{i,j} as a single global
// contract, specified implicitly or explicitly — not k contracts decided
// independently. Without a pilot, each shard commits its own offsets and
// the stitch windows must reconcile the contradictions, degrading residual
// intra-group skew at shard seams (measured up to ~51 ps on intermingled
// uniform 10k at 8 shards, and into the thousands of ps on clustered
// power-law placements). With core.Options.Pilot, Build decides the
// contract once, up front: it routes a handful of deterministic sink
// samples with the unsharded engine, reads the offsets each commits back
// out of its registry (core.Registry.Offsets), and prescribes the per-group
// median to every shard and to the stitch through the existing GroupOffsets
// machinery. Shards then agree by construction and the measured seam
// residual drops to float noise.
//
// The estimator's accuracy decides the wirelength price, and two properties
// make it cheap (see pilot.go for the measurements): samples are spatially
// compact full-density patches, because offsets are subtree-delay
// differences and Elmore delay grows with sink spacing — a sample spread
// over the die commits offsets inflated by the density ratio, and
// prescribing inflated offsets forces real skew into every shard build —
// and several patches vote by median, because any single region can commit
// an outlier. Prescribing offsets within ~1 ps of the full build's natural
// values costs ≤2% wire over the unpiloted sharded build; prescribing 30 ps
// of sampling noise costs 14%. The pass itself routes a few hundred sinks
// per patch and its cost is reported separately (Result.PilotStats).
//
// # Stitch
//
// The top level routes the k shard roots with core.MergeRoots: the same
// merge bodies as everywhere else — shared-group skew windows, the
// registry leash (on the base registry), joint resolution of still-deferred
// shard roots, and wire sneaking when independently built shards committed
// contradictory offsets. This generalizes the separate-trees-and-stitch
// baseline (internal/stitch, after Chen–Kahng–Qu–Zelikovsky): where the
// baseline stitches per-group trees with unconstrained minimum-distance
// merges, the shard stitch keeps enforcing the intra-group bound across
// every seam, so a sharded route meets the same skew contract as an
// unsharded one. The price is wirelength: shards cannot merge across a cut
// below the top level, and seams between shards sharing groups may need
// balancing or snaking wire. The differential tests in this package pin the
// envelope.
//
// # Determinism
//
// Shards = 1 is bitwise-identical to the unsharded core.Build: the single
// "shard" routes the full sink set through exactly the same code path and
// the stitch is a no-op (the differential test pins wirelength bits and a
// per-sink delay digest); the pilot is off by default, so nothing perturbs
// the identity. Shards > 1 is seeded-deterministic: the partition, the
// pilot samples and their routes, each shard build, and the stitch order
// are pure functions of (instance, options, k), so repeated runs agree
// bit-for-bit at any GOMAXPROCS or worker count — but the routed tree
// legitimately differs from the unsharded one. The pilot's contract uses a
// fixed pilot partition rather than the build's, so it is additionally
// independent of k.
package shard
