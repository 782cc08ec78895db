// Package sim is the rawstore scope fixture: the code the worker
// fixture is flagged for passes here, because simulation packages build
// raw stores on purpose.
package sim

import "logstore/internal/oss"

type archiver struct{ store oss.Store }

func newRaw(store oss.Store) *archiver { return &archiver{store: store} }

func directSim(s *oss.SimStore) error { return s.Put("k", nil) }
