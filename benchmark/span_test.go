package main

import (
	"context"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40}, // overlaps the first: 10..40 covered once
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped to 90..100
		{ID: 6, Parent: 1, Start: 45, End: 45},  // empty
	}
	if got := coveredNS(parent.Start, parent.End, children); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := selfNS(parent, children); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
	// 20 + 20 + 10 + 10 ns of calls in 50 ns of wall time.
	if got := concurrency(parent, children); got != 60.0/50 {
		t.Errorf("concurrency = %v, want 1.2", got)
	}
	if got := concurrency(parent, nil); got != 0 {
		t.Errorf("concurrency without children = %v", got)
	}
}

func TestRecorderParentsThroughContext(t *testing.T) {
	rec := newRecorder()
	root := rec.newID()
	ctx := withSpan(context.Background(), root)
	child := rec.add(spanFrom(ctx), root, "oss.Get", rec.epoch, rec.epoch.Add(5))
	rec.put(root, 0, root, "Cluster.QueryContext", rec.epoch, rec.epoch.Add(10))
	orphan := rec.add(spanFrom(context.Background()), 0, "oss.Put", rec.epoch, rec.epoch.Add(1))

	kids := childrenByParent(rec.snapshot())
	if len(kids[root]) != 1 || kids[root][0].ID != child {
		t.Fatalf("children of root = %+v", kids[root])
	}
	for _, list := range kids {
		for _, s := range list {
			if s.ID == orphan {
				t.Errorf("a span recorded without a request context got parent %d", s.Parent)
			}
		}
	}
}
