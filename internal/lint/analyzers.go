package lint

// All returns every registered analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		RawStoreAnalyzer,
		BoxedValueAnalyzer,
	}
}

// ByName returns the subset of All whose names appear in names; an
// unknown name yields nil.
func ByName(names []string) []*Analyzer {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}
