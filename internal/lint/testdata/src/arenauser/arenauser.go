// Package arenauser is the arenaref fixture: the slices a
// logblock.StringVector/Int64Vector owns must not be retained —
// stored, sent, or returned — while strings out of the arena, and
// copies of the slices' elements, pass freely.
package arenauser

import "logstore/internal/logblock"

type cache struct {
	value  string
	vals   []int64
	starts []uint32
	ch     chan string
}

type entry struct {
	vals []int64
}

// goodCompare: a value compared and dropped.
func goodCompare(sv *logblock.StringVector, i int, want string) bool {
	return sv.Value(i) == want
}

// goodReturnValue: a value is a substring of an immutable arena, so the
// caller may keep it.
func goodReturnValue(sv *logblock.StringVector, i int) string {
	return sv.Value(i)
}

// goodSum reduces over the decoded column without keeping it.
func goodSum(iv *logblock.Int64Vector) int64 {
	var s int64
	for _, v := range iv.Vals {
		s += v
	}
	return s
}

// goodFieldStore keeps a value in a long-lived struct.
func (c *cache) goodFieldStore(sv *logblock.StringVector, i int) {
	c.value = sv.Value(i)
}

// goodSend ships a value to another goroutine.
func (c *cache) goodSend(sv *logblock.StringVector, i int) {
	c.ch <- sv.Value(i)
}

// goodCopyVals copies the elements out.
func (c *cache) goodCopyVals(iv *logblock.Int64Vector) {
	c.vals = append([]int64(nil), iv.Vals...)
}

// badKeepVals retains the raw column storage itself.
func (c *cache) badKeepVals(iv *logblock.Int64Vector) {
	c.vals = iv.Vals // want arenaref
}

// badKeepStarts retains a string vector's extents.
func (c *cache) badKeepStarts(sv *logblock.StringVector) {
	s := sv.Starts
	c.starts = s // want arenaref
}

// badReturnVals hands the column storage to the caller.
func badReturnVals(iv *logblock.Int64Vector) []int64 {
	return iv.Vals[1:] // want arenaref
}

// badCompositeLit smuggles the storage out inside a struct value.
func badCompositeLit(iv *logblock.Int64Vector) entry {
	return entry{vals: iv.Vals} // want arenaref
}
