package p2p

import (
	"bytes"
	"encoding/json"
	"testing"

	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// jsonPublishFrame is a publish request as the JSON-lines protocol this
// one replaced framed it: one JSON object and a newline, each transaction
// in its WireTxn form.
func jsonPublishFrame(t *testing.T, txns []*updates.Transaction) []byte {
	t.Helper()
	req := struct {
		Op   string    `json:"op"`
		Txns []WireTxn `json:"txns,omitempty"`
	}{Op: "publish"}
	for _, tx := range txns {
		req.Txns = append(req.Txns, EncodeTxn(tx))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireFrameBytes measures the bytes per published transaction of a
// publish frame, binary against the JSON frame of the protocol it
// replaced (run with -v to see them). On the insert-only shapes the
// benchmark publishes most, the binary frame is held to at most half. A
// modify carries two tuple keys, which both forms hold verbatim as text,
// so on modify-heavy transactions the ratio is only reported: it rises
// toward 1 as the keys grow.
func TestWireFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		txns []*updates.Transaction
		half bool
	}{
		{"OPBaseTxn(4 organisms, 6 proteins)", []*updates.Transaction{workload.OPBaseTxn(workload.Alaska, 1, 4, 6)}, true},
		{"Stream(100 txns of 1 insert)", workload.Stream(workload.Alaska, 1, 100, workload.StreamOpts{Seed: 1}), true},
		{"Stream(100 txns of 4 updates, half modifies)", workload.Stream(workload.Alaska, 1, 100, workload.StreamOpts{TxnSize: 4, KeySpace: 64, ModifyFrac: 0.5, Seed: 1}), false},
	} {
		n := float64(len(tc.txns))
		bin := float64(len(publishFrame(tc.txns...))) / n
		js := float64(len(jsonPublishFrame(t, tc.txns))) / n
		t.Logf("%s: binary %.1f B/txn, JSON %.1f B/txn, ratio %.2f", tc.name, bin, js, bin/js)
		if tc.half && bin > js/2 {
			t.Errorf("%s: binary frame %.1f B/txn is more than half the JSON frame's %.1f", tc.name, bin, js)
		}
	}
}
