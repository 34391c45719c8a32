package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"bitpacker/internal/frame"
)

// headerOnlyBody serves a request's bytes up to the blob frame's header.
// Asked for more — a payload byte — it fails the test, unless lenient,
// when it only records the ask and ends the stream.
type headerOnlyBody struct {
	t       *testing.T
	r       *bytes.Reader
	lenient bool
	asked   bool
}

func (b *headerOnlyBody) Read(p []byte) (int, error) {
	if b.r.Len() > 0 {
		return b.r.Read(p)
	}
	b.asked = true
	if !b.lenient {
		b.t.Errorf("the server asked for a byte past the frame headers")
	}
	return 0, io.EOF
}

// requestHead is a request's header frame and the header of a blob frame
// declaring blobLen bytes, with no blob behind it.
func requestHead(t *testing.T, hdr any, blobLen int) (headerFrame, blobHead []byte) {
	t.Helper()
	js, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	head := frame.Header(FrameBlob, make([]byte, blobLen))
	return frame.Append(nil, FrameHeader, js), head[:]
}

// TestServeBlobBoundIsPerProfile: eval and job submission read the blob
// under the bound of the profile the header names — its largest
// ciphertext — not the server-wide 64 MiB. A blob frame declaring one
// byte more is a 400 from its header alone; one declaring exactly the
// bound is read. An unknown profile is the 404 it always was, answered
// without reading past the header frame.
func TestServeBlobBoundIsPerProfile(t *testing.T) {
	srv, p := testServer(t, nil, t.TempDir())
	defer srv.Close()
	bound := p.ctx.MaxCiphertextBytes()
	if bound >= DefaultMaxBlobBytes {
		t.Fatalf("profile bound %d is not below the server's %d: the test shows nothing", bound, DefaultMaxBlobBytes)
	}
	requests := []struct {
		path string
		hdr  func(profile string) any
	}{
		{"/v1/eval", func(profile string) any { return EvalHeader{Profile: profile, Tenant: "a", Op: "square"} }},
		{"/v1/job", func(profile string) any {
			return JobSpec{Profile: profile, Tenant: "a", Steps: []JobStep{{Op: "negate"}}}
		}},
	}
	send := func(path string, body io.Reader) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec.Code
	}
	body := func(hdr any, blobLen int, lenient bool) *headerOnlyBody {
		headerFrame, blobHead := requestHead(t, hdr, blobLen)
		return &headerOnlyBody{t: t, r: bytes.NewReader(append(headerFrame, blobHead...)), lenient: lenient}
	}
	for _, req := range requests {
		if code := send(req.path, body(req.hdr("p"), bound+1, false)); code != http.StatusBadRequest {
			t.Errorf("%s: blob declaring %d bytes (bound %d): status %d, want 400", req.path, bound+1, bound, code)
		}
		exact := body(req.hdr("p"), bound, true)
		if code := send(req.path, exact); code != http.StatusBadRequest || !exact.asked {
			t.Errorf("%s: blob declaring the bound: status %d, payload read %v; want a truncation 400 after reading", req.path, code, exact.asked)
		}
		headerFrame, _ := requestHead(t, req.hdr("nope"), 16)
		if code := send(req.path, &headerOnlyBody{t: t, r: bytes.NewReader(headerFrame)}); code != http.StatusNotFound {
			t.Errorf("%s: unknown profile: status %d, want 404", req.path, code)
		}
	}
}
