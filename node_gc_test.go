package heapgossip

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
)

// TestClosedNodeIsCollectable checks a closed node does not stay reachable
// through its pending wall-clock timers: once the node is dropped, its
// engine is garbage even though its serve-buffer prune, gossip ticker and
// stream source all had timers minutes or milliseconds out.
func TestClosedNodeIsCollectable(t *testing.T) {
	var engine weak.Pointer[core.Engine]
	func() {
		peer, err := StartNode(NodeConfig{ID: 1, UploadKbps: 1000, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		n, err := StartNode(NodeConfig{
			ID: 0, UploadKbps: 5000, Adaptive: true,
			Peers:     map[NodeID]string{1: peer.Addr().String()},
			Misbehave: &MisbehaveConfig{},
			Adapt:     &AdaptConfig{},
			Source:    &SourceConfig{Windows: 2, StartDelay: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let timers and the source get going
		engine = weak.Make(n.stack.Engine)
		n.Close()
	}()
	for i := 0; i < 5 && engine.Value() != nil; i++ {
		runtime.GC()
	}
	if engine.Value() != nil {
		t.Fatal("a closed, dropped node's engine is still reachable")
	}
}
