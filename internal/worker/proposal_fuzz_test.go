package worker

import (
	"bytes"
	"testing"

	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// FuzzForEachSub treats the fuzz input as the payload of one raft entry
// — bytes the state machine reads back from a WAL on disk or a shipped
// chunk on OSS — and walks it exactly as apply does: the group framing,
// then each sub's batch into a row store. Damaged input must come back
// as an error, never a panic or an allocation sized by a length field
// alone, and whatever does decode must survive a re-encode unchanged.
func FuzzForEachSub(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzForEachSub (cmd/fuzzseed).
	// This one needs the unexported unit encoder: a nine-tenant unit as
	// EnqueueAppend frames it.
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 9, Theta: 0, Seed: 5, StartMS: 1000})
	nine := make([][]schema.Row, 9)
	for i := range nine {
		nine[i] = gen.Batch(1 + i%2)
	}
	f.Add(encodeUnit(nine))

	f.Fuzz(func(t *testing.T, data []byte) {
		var subs [][]byte
		var batches [][]schema.Row
		err := ForEachSub(data, func(bid uint64, batch []byte) error {
			rs, err := rowstore.New(schema.RequestLogSchema(), rowstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rs.AppendBatch(batch); err != nil {
				return nil // apply counts it and moves on to the next sub
			}
			var rows []schema.Row
			rs.Scan(func(r schema.Row) bool { rows = append(rows, r); return true })
			subs = append(subs, AppendSubProposal(nil, rows))
			batches = append(batches, rows)
			return nil
		})
		if err != nil {
			return
		}
		// Every batch that decoded re-encodes to a group that decodes to
		// the same rows under the content-derived ids.
		i := 0
		err = ForEachSub(EncodeGroupProposal(subs), func(bid uint64, batch []byte) error {
			if want := EncodeBatch(batches[i]); bid != BatchID(want) || !bytes.Equal(batch, want) {
				t.Fatalf("sub %d changed across a re-encode", i)
			}
			i++
			return nil
		})
		if err != nil || i != len(subs) {
			t.Fatalf("re-encoded group: %d of %d subs, err %v", i, len(subs), err)
		}
	})
}
