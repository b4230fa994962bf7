package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"sei/internal/mnist"
)

// predictRequest is the POST /v1/predict wire format as encoding/json
// sees it: the reference decodePredict is held to, and how tests build
// bodies.
type predictRequest struct {
	Design string      `json:"design"`
	Images [][]float64 `json:"images"`
}

// decodeOutcome is what the handler makes of a body before Resolve:
// the check that rejects it ("" when none does) and what it decoded.
type decodeOutcome struct {
	reject              string // "", "decode", "design", "count" or "pixels"
	design              string
	images              int
	badImage, badPixels int
	pix                 []float64
}

// referenceDecode is today's contract: encoding/json's Decoder.Decode
// into predictRequest, then the handler's checks.
func referenceDecode(data []byte) decodeOutcome {
	var req predictRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return decodeOutcome{reject: "decode"}
	}
	out := decodeOutcome{design: req.Design, images: len(req.Images)}
	switch {
	case req.Design == "":
		out.reject = "design"
	case len(req.Images) == 0 || len(req.Images) > MaxImagesPerRequest:
		out.reject = "count"
	}
	if out.reject != "" {
		return out
	}
	for i, px := range req.Images {
		if len(px) != imagePixels {
			out.reject, out.badImage, out.badPixels = "pixels", i, len(px)
			return out
		}
		out.pix = append(out.pix, px...)
	}
	return out
}

// newDecode is the same outcome through decodePredict.
func newDecode(t testing.TB, r io.Reader) decodeOutcome {
	body, err := decodePredict(r)
	if err != nil {
		if !errors.Is(err, errMalformed) {
			t.Fatalf("decode error %v does not wrap errMalformed", err)
		}
		return decodeOutcome{reject: "decode"}
	}
	out := decodeOutcome{design: body.design, images: body.images, pix: body.pix}
	switch {
	case body.design == "":
		out.reject = "design"
	case body.images == 0 || body.images > MaxImagesPerRequest:
		out.reject = "count"
	case body.badImage >= 0:
		out.reject, out.badImage, out.badPixels = "pixels", body.badImage, body.badPixels
	}
	if out.reject != "" {
		out.pix = nil
	}
	return out
}

// checkSameOutcome fails unless decodePredict, reading data whole and
// one byte at a time (every token straddles a read), agrees with the
// reference: the same rejecting check with the same counts, or on
// accept the same design and every pixel's bits.
func checkSameOutcome(t testing.TB, data []byte) {
	t.Helper()
	want := referenceDecode(data)
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		got := newDecode(t, r)
		if got.reject != want.reject || got.images != want.images ||
			got.badImage != want.badImage || got.badPixels != want.badPixels {
			t.Fatalf("body %.200q:\n got reject %q, %d images, bad image %d of %d pixels\nwant reject %q, %d images, bad image %d of %d pixels",
				data, got.reject, got.images, got.badImage, got.badPixels, want.reject, want.images, want.badImage, want.badPixels)
		}
		if want.reject != "" {
			continue
		}
		if got.design != want.design {
			t.Fatalf("body %.200q: design %q, want %q", data, got.design, want.design)
		}
		if len(got.pix) != len(want.pix) {
			t.Fatalf("body %.200q: %d pixels, want %d", data, len(got.pix), len(want.pix))
		}
		for i := range want.pix {
			if math.Float64bits(got.pix[i]) != math.Float64bits(want.pix[i]) {
				t.Fatalf("body %.200q: pixel %d = %v, want %v", data, i, got.pix[i], want.pix[i])
			}
		}
	}
}

// marshalBody is a json.Marshal predict body of n synthetic images.
func marshalBody(t testing.TB, design string, n int) []byte {
	t.Helper()
	req := predictRequest{Design: design}
	for _, img := range mnist.Synthetic(n, 3).Images {
		req.Images = append(req.Images, img.Data())
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// imageJSON is one image of 784 pixels, all v, as a JSON array.
func imageJSON(v string) string {
	return "[" + strings.Repeat(v+",", imagePixels-1) + v + "]"
}

// quirkBodies are the encoding/json behaviours the decoder must
// reproduce, each with the outcome it has there.
func quirkBodies() map[string]string {
	img, half := imageJSON("0.5"), imageJSON("0.25")
	nullFirst := "[null" + strings.Repeat(",0.75", imagePixels-1) + "]"
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"design":"demo","images":[` + img + `]}`
	}
	return map[string]string{
		// Keys match case-insensitively, Unicode folds included.
		`{"deſign":"demo","IMAGES":[` + img + `]}`:                                     "",
		`{"\u0064esign":"demo","Images":[` + img + `]}`:                                "",
		`{"design":"demo","images":[` + img + `],"ımages":[]}`:                         "",
		`{"DESIGN":"","design":"demo","images":[` + img + `]}`:                         "",
		`{"design":"demo","design":"","images":[` + img + `]}`:                         "design",
		`{"design":"demo","images":[` + img + `],"images":null}`:                       "count",
		`{"design":"demo","images":[` + img + `],"images":[[1]]}`:                      "pixels",
		`{"design":"demo","images":[` + img + `,` + img + `],"images":[` + half + `]}`: "",
		// A null pixel keeps what an earlier "images" left in its place.
		`{"design":"demo","images":[` + img + `],"images":[` + nullFirst + `]}`:                                  "",
		`{"design":"demo","images":[` + img + `,` + img + `],"images":[[]],"images":[` + nullFirst + `]}`:        "",
		`{"design":"demo","images":[[1,2],` + img + `],"images":[[3]],"images":[` + nullFirst + `,` + img + `]}`: "",
		// Unknown keys are skipped once their values are valid.
		`{"x":[1,{"y":[true,false,null,"\u00e9\n"]}],"design":"demo","images":[` + img + `]}`: "",
		`{"x":[1,}],"design":"demo","images":[` + img + `]}`:                                  "decode",
		`{"x":1e400,"design":"demo","images":[` + img + `]}`:                                  "",
		// null leaves the zero value; [null,…] is an empty image.
		`{"design":null,"images":[` + img + `]}`:                 "design",
		`{"design":"demo","design":null,"images":[` + img + `]}`: "",
		`{"design":"demo","images":[null,` + img + `]}`:          "pixels",
		`null`:    "design",
		"null \n": "design",
		// Bytes after the top-level value are never parsed.
		`nullx`: "design",
		`"x"y`:  "decode",
		`{"design":"demo","images":[` + img + `]} trailing {garbage`: "",
		// Rejected: leading zeros, overflow, wrong types, bad syntax.
		`{"design":"demo","images":[[01` + strings.Repeat(",0", imagePixels-1) + `]]}`:    "decode",
		`{"design":"demo","images":[[1e400` + strings.Repeat(",0", imagePixels-1) + `]]}`: "decode",
		`{"design":5,"images":[` + img + `]}`:                                             "decode",
		`{"design":"demo","images":[` + img + `],"design":[1]}`:                           "decode",
		`{"design":"demo","images":[["0.5"` + strings.Repeat(",0", imagePixels-1) + `]]}`: "decode",
		`{"design":"demo","images":{}}`:                                                   "decode",
		`[1,2]`:                                                                           "decode",
		`{"design":"demo","images":[` + img + `]`:                                         "decode",
		`{"design":"demo" "images":[]}`:                                                   "decode",
		`{"design":"de` + "\x01" + `mo"}`:                                                 "decode",
		``:                                                                                "decode",
		// -0 keeps its sign; escapes decode.
		`{"design":"de\/mo","images":[[-0` + strings.Repeat(",-0.0", imagePixels-1) + `]]}`: "",
		`{"design":"d\u00e9mo\ud83d\ude00","images":[` + img + `]}`:                         "",
		// Limits: nesting, images, pixels.
		deep(9999):  "",
		deep(10000): "decode",
		`{"design":"demo","images":[` + strings.Repeat("null,", MaxImagesPerRequest) + img + `]}`:                  "count",
		`{"design":"demo","images":[` + strings.Repeat("[],", MaxImagesPerRequest) + `[]],"images":[` + img + `]}`: "",
		`{"design":"demo","images":[[` + strings.Repeat("0,", imagePixels) + `0]]}`:                                "pixels",
		// Pixels past 784 are counted, and still rejected on overflow.
		`{"design":"demo","images":[[` + strings.Repeat("0,", imagePixels) + `1e400]]}`:                                   "decode",
		`{"design":"demo","images":[[` + strings.Repeat("0,", imagePixels) + `1` + strings.Repeat("0", 400) + `]]}`:       "decode",
		`{"design":"demo","images":[[` + strings.Repeat("0,", imagePixels) + `1` + strings.Repeat("0", 298) + `]]}`:       "pixels",
		`{"design":"demo","images":[[0.` + strings.Repeat("0", 70000) + `1` + strings.Repeat(",0", imagePixels-1) + `]]}`: "",
	}
}

func TestDecodePredictMatchesEncodingJSON(t *testing.T) {
	for body, want := range quirkBodies() {
		if got := referenceDecode([]byte(body)).reject; got != want {
			t.Fatalf("encoding/json on %.120q: reject %q, the table says %q", body, got, want)
		}
		checkSameOutcome(t, []byte(body))
	}
	for _, n := range []int{1, 8, 64} {
		checkSameOutcome(t, marshalBody(t, "demo", n))
	}
}

// FuzzDecodePredict holds decodePredict to encoding/json plus the
// handler's checks on arbitrary bodies: both accept or both reject at
// the same check, and an accepted body has the same design and the
// same bits in every pixel.
func FuzzDecodePredict(f *testing.F) {
	for body := range quirkBodies() {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{not json`,
		`{"images":[[0.5]]}`,
		`{"design":"demo","images":[]}`,
		`{"design":"demo","images":[[0.1,0.2,0.3]]}`,
		`{"design":"demo","images":[` + imageJSON("0.1") + `,[0.1]]}`,
	} {
		f.Add([]byte(body))
	}
	for _, n := range []int{1, 8, 64} {
		f.Add(marshalBody(f, "demo", n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSameOutcome(t, data)
	})
}

// TestDecodePredictAllocs pins the decoder's allocations: a 64-image
// body costs its design string and one flat pixel slice, not a slice
// per image and a buffer per read.
func TestDecodePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	body := marshalBody(t, "demo", 64)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if _, err := decodePredict(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("decoding a 64-image body allocates %.1f times, want at most 8", allocs)
	}
}

// TestServeHugeImageBodyBoundedMemory sends one image of 16.8M zeros,
// a body at the 32 MB limit: decoding it must cost memory on the
// scale of the request limits, not of the body.
func TestServeHugeImageBodyBoundedMemory(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	p, err := NewPool(BatcherConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := NewHandler(Options{Registry: reg, Pool: p})

	head, tail := `{"design":"demo","images":[[0`, `]]}`
	body := []byte(head + strings.Repeat(",0", (maxBodyBytes-len(head)-len(tail))/2) + tail)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("decoding a %d-byte body allocated %d MB, want < 64 MB", len(body), grew>>20)
	}
}

// BenchmarkDecodePredict64 decodes a 64-image json.Marshal body, the
// largest request of the serving benchmark's mix.
func BenchmarkDecodePredict64(b *testing.B) {
	body := marshalBody(b, "demo", 64)
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, err := decodePredict(r); err != nil {
			b.Fatal(err)
		}
	}
}
