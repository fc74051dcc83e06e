package main

import (
	"strings"
	"testing"

	"snoopy"
	"snoopy/internal/core"
	"snoopy/internal/suboram"
	"snoopy/internal/transport"
)

// A dialed partition handle is what the wrapper wraps.
var _ partitionClient = (*transport.RemoteSubORAM)(nil)

func TestTimedSubORAMKeepsBatchedTaggedPath(t *testing.T) {
	const block = 32
	log := &spanLog{}
	inner := transport.NewLocalTagged(suboram.New(suboram.Config{BlockSize: block}), transport.NewReplayCache())
	var sub snoopy.SubORAM = &timedSubORAM{partitionClient: inner, log: log}

	// The same checks core makes before it journals a delivery tag and
	// before it takes the one-round-trip path.
	tc, tagged := sub.(core.TaggedClient)
	_, batched := sub.(core.BatchedSubORAMClient)
	if !tagged || !batched {
		t.Fatalf("wrapped client: tagged=%v batched=%v; want both", tagged, batched)
	}
	lbID, seq0 := tc.DeliveryTag()
	if lbID == 0 {
		t.Fatal("wrapped client reports a zero delivery tag")
	}

	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{BlockSize: block, JournalDir: t.TempDir()}, []snoopy.SubORAM{sub})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := []uint64{1, 2, 3}
	data := make([]byte, len(ids)*block)
	for i, id := range ids {
		fillBlock(data[i*block:(i+1)*block], id, 0)
	}
	if err := st.LoadSlices(ids, data); err != nil {
		t.Fatal(err)
	}
	const epochs = 3
	for e := 0; e < epochs; e++ {
		wait, err := st.ReadAsync(2)
		if err != nil {
			t.Fatal(err)
		}
		st.Flush()
		v, found, err := wait()
		if err != nil || !found {
			t.Fatalf("read: found=%v err=%v", found, err)
		}
		if _, err := checkBlock(v, 2); err != nil {
			t.Fatal(err)
		}
	}

	// Each journaled epoch consumed exactly one tagged delivery, made as
	// one BatchAccessN through the wrapper.
	gotID, seq := tc.DeliveryTag()
	if gotID != lbID || seq-seq0 != epochs {
		t.Fatalf("delivery tag (%x, %d) after %d epochs; want (%x, %d)", gotID, seq, epochs, lbID, seq0+epochs)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.spans) != epochs {
		t.Fatalf("%d rpc spans; want %d", len(log.spans), epochs)
	}
	for _, s := range log.spans {
		if s.Name != "rpc.BatchAccessN" || !strings.HasPrefix(s.Name, "rpc.") || s.End < s.Start {
			t.Fatalf("span %+v; want a well-formed rpc.BatchAccessN", s)
		}
	}
}
