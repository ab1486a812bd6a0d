// Package svgplot renders embedded clock trees as standalone SVG documents:
// sinks colored by group, tree wires as L-shaped (Manhattan) routes, the
// clock source, and optionally the merging-region rectangles. It is used by
// the example programs and astdme -svg to visualize the structures behind
// the thesis's figures.
package svgplot

import (
	"fmt"
	"io"
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
)

// widthPx is the output width in pixels; height follows the data aspect
// ratio.
const widthPx = 900.0

// Options controls rendering.
type Options struct {
	// ShowRegions draws the committed merging loci of internal nodes.
	ShowRegions bool
	// Title is drawn at the top-left when non-empty.
	Title string
}

// palette is a qualitative color cycle for sink groups.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// GroupColor returns the render color of a group.
func GroupColor(g int) string { return palette[g%len(palette)] }

// Render writes the SVG document for an embedded tree.
func Render(w io.Writer, root *ctree.Node, in *ctree.Instance, opt Options) error {
	if !root.Placed {
		return fmt.Errorf("svgplot: tree not embedded")
	}
	xmin, ymin, xmax, ymax := bounds(root, in)
	span := math.Max(xmax-xmin, 1)
	vspan := math.Max(ymax-ymin, 1)
	pad := 0.04 * span
	scale := widthPx / (span + 2*pad)
	heightPx := (vspan + 2*pad) * scale

	// SVG y grows downward; flip.
	px := func(p geom.Point) (float64, float64) {
		return (p.X - xmin + pad) * scale, heightPx - (p.Y-ymin+pad)*scale
	}

	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		widthPx, heightPx, widthPx, heightPx); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	// Wires: L-shaped route between embedded endpoints. Snaked edges are
	// longer than the geometric distance; annotate them with a thicker
	// stroke rather than drawing literal serpentines.
	var emit func(n *ctree.Node)
	emit = func(n *ctree.Node) {
		if n.IsLeaf() {
			return
		}
		for _, side := range []ctree.Side{ctree.SideL, ctree.SideR} {
			ref := ctree.EdgeRef{Parent: n, Side: side}
			child := ref.Child()
			a := geom.ToXY(n.Loc)
			b := geom.ToXY(child.Loc)
			ax, ay := px(a)
			bx, by := px(b)
			width, color := 1.0, "#555"
			if ref.Len() > geom.DistUV(n.Loc, child.Loc)+1e-6 {
				width, color = 2.2, "#c22" // snaked wire
			}
			fmt.Fprintf(w,
				`<polyline points="%.1f,%.1f %.1f,%.1f %.1f,%.1f" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
				ax, ay, bx, ay, bx, by, color, width)
			emit(child)
		}
	}
	emit(root)

	if opt.ShowRegions {
		root.Visit(func(n *ctree.Node) {
			if n.IsLeaf() || n.Region.IsPoint() {
				return
			}
			c := n.Region.Corners()
			fmt.Fprintf(w, `<polygon points="`)
			for _, p := range c {
				x, y := px(p)
				fmt.Fprintf(w, "%.1f,%.1f ", x, y)
			}
			fmt.Fprintf(w, `" fill="#88c" fill-opacity="0.15" stroke="#88c" stroke-width="0.5"/>`+"\n")
		})
	}

	// Sinks, colored by group.
	for _, s := range in.Sinks {
		x, y := px(s.Loc)
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"><title>sink %d group %d</title></circle>`+"\n",
			x, y, GroupColor(s.Group), s.ID, s.Group)
	}
	// Source.
	sx, sy := px(in.Source)
	fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="9" height="9" fill="black"><title>source</title></rect>`+"\n",
		sx-4.5, sy-4.5)

	if opt.Title != "" {
		fmt.Fprintf(w, `<text x="10" y="20" font-family="monospace" font-size="14">%s</text>`+"\n", opt.Title)
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

// bounds returns the drawing extents covering sinks, source and embedding.
func bounds(root *ctree.Node, in *ctree.Instance) (xmin, ymin, xmax, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	grow := func(p geom.Point) {
		xmin = math.Min(xmin, p.X)
		xmax = math.Max(xmax, p.X)
		ymin = math.Min(ymin, p.Y)
		ymax = math.Max(ymax, p.Y)
	}
	for _, s := range in.Sinks {
		grow(s.Loc)
	}
	grow(in.Source)
	root.Visit(func(n *ctree.Node) {
		if n.Placed {
			grow(geom.ToXY(n.Loc))
		}
	})
	return
}
