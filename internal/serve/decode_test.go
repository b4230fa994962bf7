package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
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

// numberPrefix matches the longest prefix of its input in JSON's
// number grammar; numberWhole matches a whole number.
var (
	numberPrefix = func() *regexp.Regexp {
		re := regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?`)
		re.Longest()
		return re
	}()
	numberWhole = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?$`)
)

// checkNumber holds walkNumber and parseNumber, reading data to its
// end, to the grammar and to strconv.ParseFloat. The walk accepts the
// longest number at the start of data unless the byte after it would
// continue a longer one ("1." or "1e"), which makes data a number cut
// short or broken; an accepted token has ParseFloat's bits, and its
// error exactly when ParseFloat has one.
func checkNumber(t *testing.T, data []byte) {
	t.Helper()
	tok := numberPrefix.Find(data)
	accept := tok != nil && (len(tok) == len(data) ||
		!numberWhole.Match(append(append(tok[:len(tok):len(tok)], data[len(tok)]), '0')))
	n, complete, x := walkNumber(data)
	if got := n > 0; got != accept || accept && (n != len(tok) || complete != (n < len(data))) {
		t.Fatalf("walkNumber(%q) = %d, %v; want accept %v of %d bytes", data, n, complete, accept, len(tok))
	}
	if !accept {
		return
	}
	want, wantErr := strconv.ParseFloat(string(tok), 64)
	got, err := parseNumber(tok, x)
	if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("parseNumber(%q) = %v, %v; ParseFloat gives %v, %v", tok, got, err, want, wantErr)
	}
}

// numberCases convert without falling back to ParseFloat (exact) or
// only through it; want is ParseFloat's value.
var numberCases = []struct {
	tok   string
	want  float64
	exact bool
}{
	{"0", 0, true},
	{"-0", math.Copysign(0, -1), true},
	{"-0.000e-400", math.Copysign(0, -1), true},
	{"0.25", 0.25, true},
	{"1e-07", 1e-7, true},
	{"-3.5E+2", -350, true},
	{"123.456e-3", 0.123456, true},
	{"1e22", 1e22, true},
	{"1e23", 1e23, false},
	// The 2^53 boundary: m below it takes one IEEE operation, m above
	// it the division by 5^k.
	{"9007199254740991e-10", 9007199254740991e-10, true},
	{"9007199254740993e-10", 9007199254740993e-10, true},
	{"9007199254740993", 9007199254740993, false},
	// 19 significant digits fit m; 20 fall back.
	{"0.1234567890123456789", 0.1234567890123456789, true},
	{"9999999999999999999e-27", 9999999999999999999e-27, true},
	{"0.98765432109876543210", 0.98765432109876543210, false},
	{"9.8765432109876543211", 9.8765432109876543211, false},
	{"12345678901234567890", 12345678901234567890, false},
	// 5^27 is the largest divisor; 5^28 falls back.
	{"1234567890123456789e-27", 1234567890123456789e-27, true},
	{"1234567890123456789e-28", 1234567890123456789e-28, false},
	// The remainder decides: 0.6441942591816576802 lies just above the
	// halfway point between two float64s, and the 19-digit quotient
	// truncated there would round down.
	{"0.6441942591816576802", 0.6441942591816577, true},
	{"5e-324", 5e-324, false},
	{"1.7976931348623157e308", math.MaxFloat64, false},
}

func TestParseNumberExact(t *testing.T) {
	for _, c := range numberCases {
		n, _, x := walkNumber([]byte(c.tok))
		if n != len(c.tok) {
			t.Fatalf("walkNumber(%q) = %d, want %d", c.tok, n, len(c.tok))
		}
		if _, exact := x.float(); exact != c.exact {
			t.Errorf("%q: exact conversion %v, want %v", c.tok, exact, c.exact)
		}
		got, err := parseNumber([]byte(c.tok), x)
		if err != nil || math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("parseNumber(%q) = %v, %v; want %v", c.tok, got, err, c.want)
		}
		checkNumber(t, []byte(c.tok))
	}
}

// FuzzParseNumber holds the one-walk number reader to the JSON number
// grammar and to strconv.ParseFloat on arbitrary input.
func FuzzParseNumber(f *testing.F) {
	for _, c := range numberCases {
		f.Add([]byte(c.tok))
	}
	for _, tok := range []string{
		"9007199254740992", "0.9007199254740993", "1e-27", "1.5e-28",
		"0.4939427684682822506", "1.7976931348623159e308", "1e400", "-1e-400",
		"2.2250738585072014e-308", "0e99999999999999999999",
		"01", "-01.5", "1.", "1.e5", "-", "1e", "1e+", "1.5.3", "1e5e5", "1ex", ".5", "+1", "- 1",
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumber(t, data)
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
