package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzShardReply holds the router's shard-reply decoder (readReply, under
// Client.Query) to its contract on arbitrary bodies answering the query
// [first, first+n%8): the body is rejected with an error, or it decodes to a
// reply that answers exactly that query and round-trips through the encoder
// to itself — never a panic, and never more logits than the body has bytes.
// testdata/fuzz/FuzzShardReply holds the seed bodies: well-formed replies and
// the ways a reply goes wrong.
func FuzzShardReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, first int32, n int) {
		vertices := make([]graph.VertexID, 0, 8)
		for i := 0; i < n&7; i++ {
			vertices = append(vertices, first+int32(i))
		}
		limit := maxReplyBytes(len(vertices))
		reply, err := readReply(bytes.NewReader(body), limit, vertices)
		if err != nil {
			return
		}
		logits := 0
		for i, r := range reply.Results {
			if r.Vertex != vertices[i] || len(r.Logits) != len(reply.Results[0].Logits) || r.Class != argmax(r.Logits) {
				t.Fatalf("accepted a reply that does not answer %v: %+v", vertices, reply.Results)
			}
			logits += len(r.Logits)
		}
		if logits > len(body) {
			t.Fatalf("a %d-byte body decoded to %d logits", len(body), logits)
		}
		enc, err := json.Marshal(reply)
		if err != nil {
			t.Fatalf("an accepted reply does not encode: %v", err)
		}
		again, err := readReply(bytes.NewReader(enc), max(limit, int64(len(enc))), vertices)
		if err != nil {
			t.Fatalf("an accepted reply's encoding is refused: %v", err)
		}
		if !reflect.DeepEqual(again, reply) {
			t.Fatalf("the reply does not round-trip: %+v became %+v", reply, again)
		}
	})
}

// TestClientRefusesBadReplies: a 200 answer that is not a reply to the
// query sent — past the size bound, not JSON, or naming other vertices —
// comes back from Client.Query as a *ReplyError; a reply of exactly the bound
// is accepted.
func TestClientRefusesBadReplies(t *testing.T) {
	vertices := []graph.VertexID{4}
	limit := int(maxReplyBytes(len(vertices)))
	good := `{"model_version":1,"results":[{"vertex":4,"logits":[1],"class":0}]}`
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"at the bound", good + strings.Repeat(" ", limit-len(good)), true},
		{"past the bound", good + strings.Repeat(" ", limit-len(good)+1), false},
		{"not JSON", good[:20], false},
		{"another vertex", strings.Replace(good, `"vertex":4`, `"vertex":5`, 1), false},
		{"no results", `{"model_version":1}`, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte(c.body))
		}))
		reply, err := NewClient(ts.URL, ClientOptions{}).Query(context.Background(), vertices)
		ts.Close()
		var re *ReplyError
		switch {
		case c.ok && (err != nil || len(reply.Results) != 1):
			t.Errorf("%s: reply %+v, err %v; want it accepted", c.name, reply, err)
		case !c.ok && !errors.As(err, &re):
			t.Errorf("%s: err %v, want a *ReplyError", c.name, err)
		}
	}
}
