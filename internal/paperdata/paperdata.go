// Package paperdata embeds the numbers the thesis reports in its evaluation
// (Tables I and II), as machine-readable records. They drive cmd/compare's
// paper-versus-measured comparisons and keep the reproduction's target
// values under test.
package paperdata

// Row is one line of a thesis table.
type Row struct {
	Circuit string
	Sinks   int
	// Groups is 1 for the EXT-BST baseline rows.
	Groups    int
	Algorithm string // "EXT-BST" or "AST-DME"
	Wirelen   float64
	// ReductionPct is the thesis's Reduction column (vs the circuit's
	// EXT-BST row); 0 for baseline rows.
	ReductionPct float64
	// MaxSkewPs is the thesis's "Maximum Skew(ps)" column.
	MaxSkewPs float64
	// CPUSeconds is the thesis's CPU column (1.6 GHz Pentium-4, 2006).
	CPUSeconds float64
}

// TableI is the thesis's Table I: clusters of sink groups.
var TableI = []Row{
	{"r1", 267, 1, "EXT-BST", 1070421, 0, 10, 25},
	{"r1", 267, 4, "AST-DME", 1048432, 2.05, 49, 25},
	{"r1", 267, 6, "AST-DME", 1041671, 2.69, 53, 25},
	{"r1", 267, 8, "AST-DME", 1040952, 2.75, 57, 26},
	{"r1", 267, 10, "AST-DME", 1039556, 2.88, 60, 26},
	{"r2", 598, 1, "EXT-BST", 2169791, 0, 10, 74},
	{"r2", 598, 4, "AST-DME", 2112508, 2.64, 39, 75},
	{"r2", 598, 6, "AST-DME", 2112074, 2.66, 46, 75},
	{"r2", 598, 8, "AST-DME", 2093848, 3.50, 56, 75},
	{"r2", 598, 10, "AST-DME", 2091244, 3.62, 62, 76},
	{"r3", 862, 1, "EXT-BST", 2734959, 0, 10, 94},
	{"r3", 862, 4, "AST-DME", 2664397, 2.58, 45, 96},
	{"r3", 862, 6, "AST-DME", 2647713, 3.19, 63, 98},
	{"r3", 862, 8, "AST-DME", 2644158, 3.32, 67, 98},
	{"r3", 862, 10, "AST-DME", 2646072, 3.25, 66, 98},
	{"r4", 1903, 1, "EXT-BST", 5442046, 0, 10, 263},
	{"r4", 1903, 4, "AST-DME", 5311981, 2.39, 42, 265},
	{"r4", 1903, 6, "AST-DME", 5307627, 2.47, 47, 265},
	{"r4", 1903, 8, "AST-DME", 5279328, 2.99, 56, 266},
	{"r4", 1903, 10, "AST-DME", 5272254, 3.12, 54, 266},
	{"r5", 3101, 1, "EXT-BST", 8033650, 0, 10, 407},
	{"r5", 3101, 4, "AST-DME", 7836825, 2.45, 49, 409},
	{"r5", 3101, 6, "AST-DME", 7799067, 2.92, 53, 409},
	{"r5", 3101, 8, "AST-DME", 7771753, 3.26, 55, 409},
	{"r5", 3101, 10, "AST-DME", 7754078, 3.48, 61, 410},
}

// TableII is the thesis's Table II: intermingled sink groups (the difficult
// instances).
var TableII = []Row{
	{"r1", 267, 1, "EXT-BST", 1070421, 0, 10, 25},
	{"r1", 267, 4, "AST-DME", 969872, 9.39, 98, 25},
	{"r1", 267, 6, "AST-DME", 945353, 11.68, 107, 25},
	{"r1", 267, 8, "AST-DME", 930384, 13.08, 113, 26},
	{"r1", 267, 10, "AST-DME", 926958, 13.40, 121, 26},
	{"r2", 598, 1, "EXT-BST", 2169791, 0, 10, 74},
	{"r2", 598, 4, "AST-DME", 1940437, 10.57, 78, 77},
	{"r2", 598, 6, "AST-DME", 1938564, 10.66, 93, 77},
	{"r2", 598, 8, "AST-DME", 1865821, 14.01, 117, 79},
	{"r2", 598, 10, "AST-DME", 1855198, 14.50, 119, 79},
	{"r3", 862, 1, "EXT-BST", 2734959, 0, 10, 94},
	{"r3", 862, 4, "AST-DME", 2452948, 10.31, 89, 97},
	{"r3", 862, 6, "AST-DME", 2371398, 13.29, 132, 98},
	{"r3", 862, 8, "AST-DME", 2386127, 12.75, 128, 101},
	{"r3", 862, 10, "AST-DME", 2379931, 12.98, 137, 101},
	{"r4", 1903, 1, "EXT-BST", 5442046, 0, 10, 263},
	{"r4", 1903, 4, "AST-DME", 4922763, 9.54, 83, 272},
	{"r4", 1903, 6, "AST-DME", 4785931, 12.06, 95, 272},
	{"r4", 1903, 8, "AST-DME", 4791754, 11.95, 113, 273},
	{"r4", 1903, 10, "AST-DME", 4762357, 12.49, 109, 273},
	{"r5", 3101, 1, "EXT-BST", 8033650, 0, 10, 407},
	{"r5", 3101, 4, "AST-DME", 7247698, 9.78, 98, 411},
	{"r5", 3101, 6, "AST-DME", 7094385, 11.69, 107, 412},
	{"r5", 3101, 8, "AST-DME", 6984476, 13.06, 111, 412},
	{"r5", 3101, 10, "AST-DME", 6915703, 13.92, 122, 413},
}

// Baseline returns the EXT-BST row of a circuit from a table.
func Baseline(table []Row, circuit string) (Row, bool) {
	for _, r := range table {
		if r.Circuit == circuit && r.Algorithm == "EXT-BST" {
			return r, true
		}
	}
	return Row{}, false
}

// Find returns the row for a circuit/groups/algorithm combination.
func Find(table []Row, circuit string, groups int, algorithm string) (Row, bool) {
	for _, r := range table {
		if r.Circuit == circuit && r.Groups == groups && r.Algorithm == algorithm {
			return r, true
		}
	}
	return Row{}, false
}
