package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// cappedRecorder records a response and cancels the request once the
// body passes limit bytes: a "rows(N)" plan streams N records, and the
// fuzzer picks N.
type cappedRecorder struct {
	*httptest.ResponseRecorder
	limit  int
	cancel context.CancelFunc
}

func (w *cappedRecorder) Write(p []byte) (int, error) {
	if w.Body.Len()+len(p) > w.limit {
		w.cancel()
	}
	return w.ResponseRecorder.Write(p)
}

// FuzzServeRequest sends any method, body and bearer token to /v1/query
// or /v1/explain of a server over fakeEngine, with one tenant whose token
// is "fuzz-token". The body is pad spaces followed by body, so a small
// input can run past the 1 MiB request bound. Whatever arrives, the
// handler must not panic and must answer 200, 400, 401, 405, 413 or 500;
// every other answer is an ErrorResponse with a non-empty Error, and a
// 200 from explain is an ExplainResponse. The seed corpus is
// testdata/fuzz/FuzzServeRequest: a valid plan, an empty plan, malformed
// JSON, a body over 1 MiB and a wrong token.
func FuzzServeRequest(f *testing.F) {
	s, err := New(Config{Engine: &fakeEngine{}, Tenants: []Tenant{{Name: "fuzz", Token: "fuzz-token"}}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, method string, explain bool, body []byte, pad uint32, token string) {
		path := "/v1/query"
		if explain {
			path = "/v1/explain"
		}
		padded := append(bytes.Repeat([]byte(" "), int(pad%(maxRequestBytes+1024))), body...)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(padded)).WithContext(ctx)
		req.Method = method
		req.Header.Set("Authorization", "Bearer "+token)
		w := &cappedRecorder{ResponseRecorder: httptest.NewRecorder(), limit: 64 << 10, cancel: cancel}
		h.ServeHTTP(w, req)

		switch w.Code {
		case http.StatusOK:
			if explain {
				var ex ExplainResponse
				if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil || ex.Explain == nil {
					t.Fatalf("explain answered 200 with %q: not an ExplainResponse (%v)", w.Body.Bytes(), err)
				}
			}
		case http.StatusBadRequest, http.StatusUnauthorized, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge, http.StatusInternalServerError:
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q: not an ErrorResponse with an error (%v)", w.Code, w.Body.Bytes(), err)
			}
		default:
			t.Fatalf("%s %s answered status %d", method, path, w.Code)
		}
	})
}
