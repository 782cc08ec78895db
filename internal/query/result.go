package query

import (
	"fmt"
	"slices"
	"sort"

	"logstore/internal/schema"
)

// GroupCount is one GROUP BY bucket.
type GroupCount struct {
	Key   schema.Value
	Count int64
}

// Result is a (partial or final) query result. Partial results from
// shards and LogBlocks merge associatively; Finalize applies ordering
// and limits once at the broker.
type Result struct {
	Columns []string
	Rows    []schema.Row
	Count   int64
	Groups  []GroupCount
	Stats   ExecStats
	// Resident lists the row-store segments the real-time partials merged
	// into this result had covered (rowstore.Store.ScanTenant). The broker
	// leaves out the LogBlocks born from them, whose rows it has already.
	Resident []uint64
}

// NewResult returns an empty result shaped for the query.
func NewResult(q *Query, sch *schema.Schema) *Result {
	r := &Result{}
	switch {
	case q.CountStar && q.GroupBy != "":
		r.Columns = []string{q.GroupBy, "count"}
	case q.CountStar:
		r.Columns = []string{"count"}
	case q.Star:
		for _, c := range sch.Columns {
			r.Columns = append(r.Columns, c.Name)
		}
	default:
		r.Columns = slices.Clip(q.Select) // shared, so never appended to in place
	}
	return r
}

// AddRow folds one matched, projected row into the result according to
// the query shape.
func (r *Result) AddRow(q *Query, row schema.Row) {
	switch {
	case q.CountStar && q.GroupBy != "":
		// Row is projected to [groupKey].
		r.addGroup(row[0], 1)
	case q.CountStar:
		r.Count++
	default:
		r.Rows = append(r.Rows, row)
	}
}

// AddRows folds the matched, projected rows of one LogBlock, in order.
// The slice becomes the result's (the first one is kept, not copied).
func (r *Result) AddRows(q *Query, rows []schema.Row) {
	switch {
	case q.CountStar && q.GroupBy != "":
		for _, row := range rows {
			r.addGroup(row[0], 1)
		}
	case q.CountStar:
		r.Count += int64(len(rows))
	default:
		r.Rows = adoptOrAppend(r.Rows, rows)
	}
}

// adoptOrAppend appends more to rows, taking more itself when there is
// nothing to append to: most results come from one part.
func adoptOrAppend(rows, more []schema.Row) []schema.Row {
	if len(rows) == 0 {
		return more
	}
	return append(rows, more...)
}

func (r *Result) addGroup(key schema.Value, n int64) {
	for i := range r.Groups {
		if r.Groups[i].Key.Equal(key) {
			r.Groups[i].Count += n
			return
		}
	}
	r.Groups = append(r.Groups, GroupCount{Key: key, Count: n})
}

// Merge folds another partial result in. It takes o's rows over: the
// first part's row slice becomes r's own instead of being copied, so o
// must not be used afterwards.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	if len(r.Columns) == 0 {
		r.Columns = o.Columns
	}
	r.Rows = adoptOrAppend(r.Rows, o.Rows)
	r.Count += o.Count
	for _, g := range o.Groups {
		r.addGroup(g.Key, g.Count)
	}
	r.Stats.Add(o.Stats)
	r.Resident = append(r.Resident, o.Resident...)
}

// Finalize applies ORDER BY and LIMIT, producing the client-visible
// result. Ordering supports "count" (for GROUP BY results) and any
// selected column.
func (r *Result) Finalize(q *Query) error {
	if q.GroupBy != "" {
		if q.OrderBy == "count" || q.OrderBy == "" {
			sort.SliceStable(r.Groups, func(i, j int) bool {
				if q.Desc {
					return r.Groups[i].Count > r.Groups[j].Count
				}
				return r.Groups[i].Count < r.Groups[j].Count
			})
		} else if q.OrderBy == q.GroupBy {
			sort.SliceStable(r.Groups, func(i, j int) bool {
				c := r.Groups[i].Key.Compare(r.Groups[j].Key)
				if q.Desc {
					return c > 0
				}
				return c < 0
			})
		} else {
			return fmt.Errorf("query: ORDER BY %q not available with GROUP BY %q", q.OrderBy, q.GroupBy)
		}
		if q.Limit > 0 && len(r.Groups) > q.Limit {
			r.Groups = r.Groups[:q.Limit]
		}
		return nil
	}
	if q.OrderBy != "" && q.OrderBy != "count" {
		pos := -1
		for i, c := range r.Columns {
			if c == q.OrderBy {
				pos = i
			}
		}
		if pos < 0 {
			return fmt.Errorf("query: ORDER BY column %q not in projection", q.OrderBy)
		}
		sort.SliceStable(r.Rows, func(i, j int) bool {
			c := r.Rows[i][pos].Compare(r.Rows[j][pos])
			if q.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.Limit > 0 && len(r.Rows) > q.Limit {
		r.Rows = r.Rows[:q.Limit]
	}
	return nil
}
