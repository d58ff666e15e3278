package data

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/hpcgo/rcsfista/internal/sparse"
)

// finite reports whether v is neither NaN nor an infinity, which
// strconv.ParseFloat accepts as "nan", "inf" and "infinity".
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ReadLIBSVM parses LIBSVM/SVMlight format from r: one sample per line,
// "label idx:val idx:val ...", with 1-based feature indices. Lines
// starting with '#' and blank lines are skipped; a trailing inline
// comment after '#' is ignored. The result is the paper's d x m
// orientation (features x samples). If features > 0 it fixes d;
// otherwise d is the maximum index seen. A non-finite label or feature
// value is an error naming its line.
func ReadLIBSVM(r io.Reader, features int) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	type col struct {
		rows []int
		vals []float64
	}
	var cols []col
	var y []float64
	maxFeat := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("data: line %d: bad label %q: %v", lineNo, fields[0], err)
		}
		if !finite(label) {
			return nil, fmt.Errorf("data: line %d: non-finite label %q", lineNo, fields[0])
		}
		var c col
		prev := 0
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("data: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("data: line %d: bad feature index %q", lineNo, f[:colon])
			}
			if idx <= prev {
				return nil, fmt.Errorf("data: line %d: feature indices must be strictly increasing", lineNo)
			}
			prev = idx
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: bad feature value %q: %v", lineNo, f[colon+1:], err)
			}
			if !finite(val) {
				return nil, fmt.Errorf("data: line %d: non-finite feature value %q", lineNo, f[colon+1:])
			}
			if idx > maxFeat {
				maxFeat = idx
			}
			if val != 0 {
				c.rows = append(c.rows, idx-1)
				c.vals = append(c.vals, val)
			}
		}
		cols = append(cols, c)
		y = append(y, label)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: read: %v", err)
	}
	d := features
	if d <= 0 {
		d = maxFeat
	} else if maxFeat > d {
		return nil, fmt.Errorf("data: feature index %d exceeds declared dimension %d", maxFeat, d)
	}

	x := &sparse.CSC{Rows: d, Cols: len(cols), ColPtr: make([]int, len(cols)+1)}
	for j, c := range cols {
		x.RowIdx = append(x.RowIdx, c.rows...)
		x.Val = append(x.Val, c.vals...)
		x.ColPtr[j+1] = len(x.Val)
	}
	return &Problem{Name: "libsvm", X: x, Y: y, Lambda: 0.1}, nil
}

// ReadLIBSVMFile reads a LIBSVM file from disk.
func ReadLIBSVMFile(path string, features int) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadLIBSVM(f, features)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p.Name = path
	return p, nil
}

// WriteLIBSVM writes the problem in LIBSVM format (1-based indices).
func WriteLIBSVM(w io.Writer, p *Problem) error {
	bw := bufio.NewWriter(w)
	for j := 0; j < p.X.Cols; j++ {
		if _, err := fmt.Fprintf(bw, "%g", p.Y[j]); err != nil {
			return err
		}
		rows, vals := p.X.Col(j)
		for k, r := range rows {
			if _, err := fmt.Fprintf(bw, " %d:%g", r+1, vals[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteLIBSVMFile writes the problem to path in LIBSVM format.
func WriteLIBSVMFile(path string, p *Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLIBSVM(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
