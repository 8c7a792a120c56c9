// Package expt reproduces every table and figure of the paper's evaluation
// (§4 Figs. 3–5, Table 1) and use cases (§5 Fig. 6, Table 2) on the
// simulated Jugene (Blue Gene/P + GPFS) and Jaguar (Cray XT4 + Lustre)
// machines. Each runner returns a Result whose rows mirror the data series
// the paper reports; cmd/sionbench prints them, and golden_test.go holds
// each table at scale 16 to its committed testdata/<name>.golden.
//
// A scale divisor shrinks task counts and data volumes proportionally for
// quick runs; scale=1 is the paper's full configuration.
package expt

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// Result is one experiment's regenerated data.
type Result struct {
	Name   string   // experiment id, e.g. "fig3a"
	Title  string   // paper caption summary
	Header []string // column names
	Rows   [][]string
	Notes  []string // deviations, calibration remarks
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// simRun executes body on n simulated ranks bound to fs and returns the
// maximum end time across ranks.
func simRun(fs *simfs.FS, n int, body func(c *mpi.Comm, v fsio.FileSystem)) float64 {
	e := vtime.NewEngine()
	var maxEnd float64
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		body(c, fs.View(c.Rank(), c.Proc()))
		if t := c.Now(); t > maxEnd {
			maxEnd = t
		}
	})
	return maxEnd
}

// syncStart aligns every rank on a common start time and returns it.
func syncStart(c *mpi.Comm) float64 {
	c.Barrier()
	t := allMaxTime(c)
	c.Proc().AdvanceTo(t)
	return t
}

// allMaxTime returns the maximum virtual clock across ranks (exploiting
// that positive IEEE-754 doubles order like their bit patterns).
func allMaxTime(c *mpi.Comm) float64 {
	bits := c.AllreduceInt64(mpi.OpMax, int64(math.Float64bits(c.Now())))
	return math.Float64frombits(uint64(bits))
}

// scaleDown divides n by scale, keeping at least min.
func scaleDown(n, scale, min int) int {
	if scale < 1 {
		scale = 1
	}
	n /= scale
	if n < min {
		n = min
	}
	return n
}

func secs(t float64) string { return fmt.Sprintf("%.1f", t) }

func profileByName(name string) *simfs.Profile {
	switch name {
	case "jugene":
		return simfs.Jugene()
	case "jaguar":
		return simfs.Jaguar()
	}
	panic("expt: unknown machine profile " + name)
}

// kfmt formats a task count the way the paper labels its axes (4k, 64k…).
func kfmt(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dk", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// ByName returns the named experiment's runner (nil if unknown).
func ByName(name string) func(scale int) *Result {
	switch name {
	case "fig3a":
		return Fig3a
	case "fig3b":
		return Fig3b
	case "fig4a":
		return Fig4a
	case "fig4b":
		return Fig4b
	case "tab1", "table1":
		return Table1
	case "fig5a":
		return Fig5a
	case "fig5b":
		return Fig5b
	case "fig6":
		return Fig6
	case "tab2", "table2":
		return Table2
	case "tab3", "table3":
		return Table3
	case "tab4", "table4":
		return Table4
	case "tab5", "table5":
		return Table5
	case "tab6", "table6":
		return Table6
	case "tab7", "table7":
		return Table7
	case "tab8", "table8":
		return Table8
	case "tab9", "table9":
		return Table9
	case "tab10", "table10":
		return Table10
	}
	return nil
}

// Names lists the experiment ids in paper order.
func Names() []string {
	return []string{"fig3a", "fig3b", "fig4a", "fig4b", "tab1", "fig5a", "fig5b", "fig6", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9", "tab10"}
}
