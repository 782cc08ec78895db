// Package query implements LogStore's query stack: a parser for the
// SQL subset the paper's retrieval template uses (§5.1), predicate
// evaluation over rows, the multi-level data-skipping executor over
// LogBlocks (Figure 8: LogBlock map → column SMA → index lookup →
// column-block SMA → residual scan), and the lightweight aggregation
// (COUNT/GROUP BY) that serves the paper's "which IP addresses
// frequently accessed this API" BI queries.
package query

import (
	"fmt"
	"strings"

	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// Pred is one conjunct of a WHERE clause: either a comparison
// (col op literal) or a full-text MATCH over an analyzed string column.
type Pred struct {
	Col   string
	Op    sma.Op
	Val   schema.Value
	Match bool // true: full-text match; Op/Val unused
	// Terms are the analyzed MATCH terms (exact), or for a string
	// equality its literal's tokens, inverted.Tokenize(Val.S): the
	// terms its index probe looks up. The parser sets them; an equality
	// without them probes no row out, and is only verified.
	Terms []string
	// Prefixes are MATCH terms written with a trailing '*' (Lucene-style
	// prefix queries): each must prefix-match some token of the value.
	Prefixes []string
}

// String renders the predicate in SQL.
func (p Pred) String() string {
	if p.Match {
		parts := append([]string{}, p.Terms...)
		for _, pre := range p.Prefixes {
			parts = append(parts, pre+"*")
		}
		return fmt.Sprintf("%s MATCH '%s'", p.Col, strings.Join(parts, " "))
	}
	if p.Val.Kind == schema.String {
		return fmt.Sprintf("%s %s '%s'", p.Col, p.Op, p.Val.S)
	}
	return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.Val.I)
}

// EvalRow evaluates the predicate against a row value.
func (p Pred) EvalRow(v schema.Value) bool {
	if p.Match {
		if v.Kind != schema.String {
			return false
		}
		toks := inverted.Tokenize(v.S)
		set := make(map[string]bool, len(toks))
		for _, t := range toks {
			set[t] = true
		}
		lower := strings.ToLower(v.S)
		for _, term := range p.Terms {
			if !set[term] && term != lower {
				return false
			}
		}
		for _, prefix := range p.Prefixes {
			found := false
			for _, t := range toks {
				if strings.HasPrefix(t, prefix) {
					found = true
					break
				}
			}
			if !found && !strings.HasPrefix(lower, prefix) {
				return false
			}
		}
		return true
	}
	if v.Kind != p.Val.Kind {
		return false
	}
	c := v.Compare(p.Val)
	switch p.Op {
	case sma.EQ:
		return c == 0
	case sma.NE:
		return c != 0
	case sma.LT:
		return c < 0
	case sma.LE:
		return c <= 0
	case sma.GT:
		return c > 0
	case sma.GE:
		return c >= 0
	default:
		return false
	}
}

// Query is a parsed statement.
type Query struct {
	Table     string
	Select    []string // empty with Star/CountStar
	Star      bool
	CountStar bool
	Preds     []Pred
	GroupBy   string
	OrderBy   string // column name or "count"
	Desc      bool
	Limit     int // 0 = unlimited
}

// String renders the query back to SQL (diagnostics).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case q.CountStar:
		sb.WriteString("COUNT(*)")
	case q.Star:
		sb.WriteString("*")
	default:
		sb.WriteString(strings.Join(q.Select, ", "))
	}
	fmt.Fprintf(&sb, " FROM %s", q.Table)
	if len(q.Preds) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range q.Preds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	if q.GroupBy != "" {
		fmt.Fprintf(&sb, " GROUP BY %s", q.GroupBy)
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&sb, " ORDER BY %s", q.OrderBy)
		if q.Desc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// RowCap returns how many matched rows of any one LogBlock the result
// can use, or 0 for all of them. A plain LIMIT n keeps the first n rows
// of the merged result, so no part contributes more than its first n;
// ORDER BY and the aggregates need every matched row.
func (q *Query) RowCap() int {
	if q.CountStar || q.GroupBy != "" || q.OrderBy != "" {
		return 0
	}
	return q.Limit
}

// Validate type-checks the query against a schema.
func (q *Query) Validate(sch *schema.Schema) error {
	if q.Table != sch.Name {
		return fmt.Errorf("query: unknown table %q", q.Table)
	}
	for _, c := range q.Select {
		if sch.ColumnIndex(c) < 0 {
			return fmt.Errorf("query: unknown column %q", c)
		}
	}
	for _, p := range q.Preds {
		ci := sch.ColumnIndex(p.Col)
		if ci < 0 {
			return fmt.Errorf("query: unknown column %q in predicate", p.Col)
		}
		col := sch.Columns[ci]
		if p.Match {
			if col.Type != schema.String {
				return fmt.Errorf("query: MATCH on non-string column %q", p.Col)
			}
			continue
		}
		if p.Val.Kind != col.Type {
			return fmt.Errorf("query: predicate on %q compares %v literal to %v column",
				p.Col, p.Val.Kind, col.Type)
		}
	}
	if q.GroupBy != "" {
		if sch.ColumnIndex(q.GroupBy) < 0 {
			return fmt.Errorf("query: unknown GROUP BY column %q", q.GroupBy)
		}
		if !q.CountStar {
			return fmt.Errorf("query: GROUP BY requires COUNT(*)")
		}
	} else if q.CountStar && len(q.Select) > 0 {
		return fmt.Errorf("query: mixing COUNT(*) with columns requires GROUP BY")
	}
	if q.OrderBy != "" && q.OrderBy != "count" && sch.ColumnIndex(q.OrderBy) < 0 {
		return fmt.Errorf("query: unknown ORDER BY column %q", q.OrderBy)
	}
	return nil
}

// KeyRange extracts the tenant equality and timestamp bounds the
// planner routes and prunes with. ok is false when no tenant equality
// predicate exists (LogStore queries are per-tenant).
func (q *Query) KeyRange(sch *schema.Schema) (tenant int64, minTS, maxTS int64, ok bool) {
	minTS = -1 << 62
	maxTS = 1<<62 - 1
	for _, p := range q.Preds {
		if p.Match {
			continue
		}
		switch p.Col {
		case sch.TenantCol:
			if p.Op == sma.EQ {
				tenant = p.Val.I
				ok = true
			}
		case sch.TimeCol:
			switch p.Op {
			case sma.GE:
				if p.Val.I > minTS {
					minTS = p.Val.I
				}
			case sma.GT:
				if p.Val.I+1 > minTS {
					minTS = p.Val.I + 1
				}
			case sma.LE:
				if p.Val.I < maxTS {
					maxTS = p.Val.I
				}
			case sma.LT:
				if p.Val.I-1 < maxTS {
					maxTS = p.Val.I - 1
				}
			case sma.EQ:
				if p.Val.I > minTS {
					minTS = p.Val.I
				}
				if p.Val.I < maxTS {
					maxTS = p.Val.I
				}
			}
		}
	}
	return
}

// EvalRowAll evaluates every predicate against a full row.
func (q *Query) EvalRowAll(sch *schema.Schema, row schema.Row) bool {
	for _, p := range q.Preds {
		ci := sch.ColumnIndex(p.Col)
		if ci < 0 || !p.EvalRow(row[ci]) {
			return false
		}
	}
	return true
}

// CompiledPred is a predicate with its column ordinal resolved, so
// per-row evaluation avoids name lookups on scan-heavy paths.
type CompiledPred struct {
	Col  int
	Pred Pred
}

// Compile resolves predicate column ordinals against a schema.
func (q *Query) Compile(sch *schema.Schema) ([]CompiledPred, error) {
	out := make([]CompiledPred, 0, len(q.Preds))
	for _, p := range q.Preds {
		ci := sch.ColumnIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("query: unknown column %q in predicate", p.Col)
		}
		out = append(out, CompiledPred{Col: ci, Pred: p})
	}
	return out, nil
}

// EvalCompiled evaluates a compiled predicate list against a row.
func EvalCompiled(preds []CompiledPred, row schema.Row) bool {
	for _, cp := range preds {
		if !cp.Pred.EvalRow(row[cp.Col]) {
			return false
		}
	}
	return true
}
