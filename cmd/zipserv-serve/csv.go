package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// table is one scenario's result: a header and one row per variant.
// The same cells go to the stdout table and the -csv export, so the two
// cannot drift apart.
type table struct {
	columns []string
	rows    [][]string
}

// print writes the table to w in aligned columns.
func (t *table) print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	t.write(tw, "\t")
	return tw.Flush()
}

// writeCSV exports the table to path and notes it on w; a no-op when
// path is empty. The cells are plain numbers and identifiers, so no
// quoting is needed.
func (t *table) writeCSV(w io.Writer, path string) error {
	if path == "" {
		return nil
	}
	var b bytes.Buffer
	t.write(&b, ",")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// write renders the header and one line per row, cells joined by sep.
func (t *table) write(w io.Writer, sep string) {
	for _, row := range append([][]string{t.columns}, t.rows...) {
		fmt.Fprintln(w, strings.Join(row, sep))
	}
}

// winGate is the CI perf-regression gate behind -require-win. Each
// scenario states its requirements in order; when the gate is armed,
// the first violated requirement fails the run with a uniform "perf
// regression" error, so the scenarios cannot drift apart on gating
// semantics. Disarmed, every requirement is a no-op and the comparison
// is informational.
type winGate struct {
	armed bool
	err   error
}

// require records a violation when the gate is armed and cond is false.
// The first violation wins; later requirements are still cheap to
// state but change nothing.
func (g *winGate) require(cond bool, format string, args ...any) {
	if g.armed && g.err == nil && !cond {
		g.err = fmt.Errorf("perf regression: "+format, args...)
	}
}
