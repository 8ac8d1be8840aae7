package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// rewriteTransport replaces the first from in every response body with
// to: damage that keeps the body valid JSON.
type rewriteTransport struct{ from, to string }

func (rt rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // replaced below
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(bytes.Replace(body, []byte(rt.from), []byte(rt.to), 1)))
	return resp, nil
}

// TestRPCRejectsBodyChangedInTransit: a response whose body changed on
// the wire but still decodes is an error, not data.
func TestRPCRejectsBodyChangedInTransit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		clusterJSON(w, http.StatusOK, runResponse{Key: "k", CacheHit: true})
	}))
	defer ts.Close()
	call := func(hc *http.Client) error {
		_, err := newRPCClient(hc, Options{}, nil).once(context.Background(), ts.URL, http.MethodGet, "/cluster/v1/cache/k", nil)
		return err
	}
	if err := call(&http.Client{}); err != nil {
		t.Fatalf("intact response: %v", err)
	}
	if err := call(&http.Client{Transport: rewriteTransport{`"key"`, `"kez"`}}); err == nil {
		t.Fatal("response changed in transit was accepted")
	}
}
