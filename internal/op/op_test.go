package op

import (
	"bytes"
	"testing"
)

func TestBatchBuildAndCounts(t *testing.T) {
	var b Batch
	b.Get(1)
	b.Put(2, 20)
	b.Del(3)
	b.Put(4, 40)
	if b.Len() != 4 || b.Gets() != 1 || b.Puts() != 2 || b.Dels() != 1 || b.Mutations() != 3 {
		t.Fatalf("counts = len %d gets %d puts %d dels %d", b.Len(), b.Gets(), b.Puts(), b.Dels())
	}
	wantKinds := []Kind{Get, Put, Del, Put}
	wantKeys := []uint64{1, 2, 3, 4}
	wantVals := []uint64{0, 20, 0, 40}
	for i := range wantKinds {
		if b.Kinds()[i] != wantKinds[i] || b.Keys()[i] != wantKeys[i] || b.Vals()[i] != wantVals[i] {
			t.Fatalf("entry %d = (%v, %d, %d)", i, b.Kinds()[i], b.Keys()[i], b.Vals()[i])
		}
	}
	if b.Code() != CodeMixedBatch {
		t.Fatalf("Code = %#x, want mixed", b.Code())
	}
	b.Reset()
	if b.Len() != 0 || b.Mutations() != 0 {
		t.Fatalf("Reset left %d entries", b.Len())
	}
}

// TestUniformBatchesEncodeAsKindCodes pins the degenerate-batch contract:
// a uniform batch encodes exactly as its kind-specific payload, so WAL
// records of all-PUT/all-DEL batches keep the pre-mixed on-disk layout.
func TestUniformBatchesEncodeAsKindCodes(t *testing.T) {
	keys := []uint64{5, 6, 7}
	vals := []uint64{50, 60, 70}

	var puts Batch
	for i, k := range keys {
		puts.Put(k, vals[i])
	}
	code, payload := puts.Payload()
	if code != CodePutBatch || !bytes.Equal(payload, AppendPairsPayload(nil, keys, vals)) {
		t.Fatalf("uniform put batch encoded as %#x / %x", code, payload)
	}

	var dels Batch
	for _, k := range keys {
		dels.Del(k)
	}
	code, payload = dels.Payload()
	if code != CodeDelBatch || !bytes.Equal(payload, AppendKeysPayload(nil, keys)) {
		t.Fatalf("uniform del batch encoded as %#x / %x", code, payload)
	}

	var gets Batch
	for _, k := range keys {
		gets.Get(k)
	}
	if code, _ := gets.Payload(); code != CodeGetBatch {
		t.Fatalf("uniform get batch encoded as %#x", code)
	}
}

// TestDecodeRetainsPayloadZeroCopy pins the zero-re-encoding contract: a
// batch decoded from bytes hands the same bytes back from Payload,
// without an encoding pass.
func TestDecodeRetainsPayloadZeroCopy(t *testing.T) {
	var src Batch
	src.Get(1)
	src.Put(2, 22)
	src.Del(3)
	wire := src.AppendPayload(nil)

	var b Batch
	if err := DecodePayload(CodeMixedBatch, wire, &b); err != nil {
		t.Fatal(err)
	}
	before := Encodings()
	code, payload := b.Payload()
	if Encodings() != before {
		t.Fatal("Payload of a decoded batch performed an encoding pass")
	}
	if code != CodeMixedBatch || len(payload) != len(wire) || &payload[0] != &wire[0] {
		t.Fatalf("Payload did not return the received bytes (code %#x)", code)
	}
	// Mutating drops the retained encoding: Payload must re-encode.
	b.Put(9, 99)
	code, payload = b.Payload()
	if Encodings() == before {
		t.Fatal("mutated batch did not re-encode")
	}
	var back Batch
	if err := DecodePayload(code, payload, &back); err != nil {
		t.Fatalf("re-encoded payload does not decode: %v", err)
	}
	if back.Len() != 4 || back.Keys()[3] != 9 || back.Vals()[3] != 99 {
		t.Fatalf("round trip lost the appended entry: %+v", back)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	var b Batch
	cases := []struct {
		name string
		code byte
		p    []byte
	}{
		{"short header", CodeGetBatch, []byte{1, 2}},
		{"count/length mismatch", CodeDelBatch, []byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"unknown code", 0x42, []byte{0, 0, 0, 0}},
		{"mixed short kind column", CodeMixedBatch, []byte{5, 0, 0, 0, 0, 1}},
		{"mixed bad kind", CodeMixedBatch, append([]byte{1, 0, 0, 0, 7}, make([]byte, 8)...)},
		{"oversized count", CodePutBatch, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, tc := range cases {
		if err := DecodePayload(tc.code, tc.p, &b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPayloadSizeMatchesEncoding(t *testing.T) {
	var b Batch
	b.Get(1)
	b.Put(2, 3)
	b.Del(4)
	if got := len(b.AppendPayload(nil)); got != b.PayloadSize() {
		t.Fatalf("PayloadSize = %d, encoded %d", b.PayloadSize(), got)
	}
	var puts Batch
	puts.Put(1, 2)
	if got := len(puts.AppendPayload(nil)); got != puts.PayloadSize() {
		t.Fatalf("uniform PayloadSize = %d, encoded %d", puts.PayloadSize(), got)
	}
}

// FuzzDecodeMixedPayload mirrors the WAL's FuzzDecodePayload for the
// MIXEDBATCH layout: the decoder must never panic, and whatever it
// accepts must re-encode to the identical bytes (the codec is bijective
// on valid payloads).
func FuzzDecodeMixedPayload(f *testing.F) {
	var seed Batch
	seed.Get(1)
	seed.Put(2, 22)
	seed.Del(3)
	f.Add(seed.AppendPayload(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var b Batch
		if err := DecodePayload(CodeMixedBatch, payload, &b); err != nil {
			return
		}
		re := b.AppendPayload(nil)
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encoded %x from accepted payload %x", re, payload)
		}
	})
}

// FuzzDecodeAnyPayload extends the bijectivity property across every
// batch code, re-encoding under the code the payload was decoded with.
func FuzzDecodeAnyPayload(f *testing.F) {
	f.Add(CodePutBatch, AppendPairsPayload(nil, []uint64{1}, []uint64{2}))
	f.Add(CodeDelBatch, AppendKeysPayload(nil, []uint64{9}))
	f.Add(CodeGetBatch, AppendKeysPayload(nil, []uint64{7, 8}))
	f.Fuzz(func(t *testing.T, code byte, payload []byte) {
		var b Batch
		if err := DecodePayload(code, payload, &b); err != nil {
			return
		}
		if b.Code() != code {
			t.Fatalf("decoded under %#x but Code() = %#x", code, b.Code())
		}
		re := b.AppendPayload(nil)
		if !bytes.Equal(re, payload) {
			t.Fatalf("code %#x: re-encoded %x from accepted payload %x", code, re, payload)
		}
	})
}

// TestResultsResetSizesBothColumns is the regression test for a Results
// whose columns have different capacities: Reset must size each one, not
// only the column it happens to check.
func TestResultsResetSizesBothColumns(t *testing.T) {
	for _, r := range []Results{
		{Found: make([]bool, 64)},
		{Vals: make([]uint64, 64)},
		{Found: make([]bool, 8), Vals: make([]uint64, 64)},
	} {
		r.Found = append(r.Found[:0], true)
		if cap(r.Vals) > 0 {
			r.Vals = append(r.Vals[:0], 7)
		}
		r.Reset(32)
		if len(r.Found) != 32 || len(r.Vals) != 32 {
			t.Fatalf("Reset(32): len(Found)=%d len(Vals)=%d", len(r.Found), len(r.Vals))
		}
		for i := range r.Found {
			if r.Found[i] || r.Vals[i] != 0 {
				t.Fatalf("Reset(32) left entry %d = (%v, %d)", i, r.Found[i], r.Vals[i])
			}
		}
	}
}

// TestSplitGatherKeepsEntryOrder routes a mixed batch into parts by key
// parity and back: every sub-batch must hold its entries in caller order,
// and Gather must put each part's outcomes back at the entries' positions
// — across calls that reuse the working memory with another part count.
func TestSplitGatherKeepsEntryOrder(t *testing.T) {
	var r Results
	for _, parts := range []int{3, 1, 4, 2} {
		var b Batch
		for i := uint64(0); i < 50; i++ {
			switch i % 3 {
			case 0:
				b.Get(i)
			case 1:
				b.Put(i, i*10)
			default:
				b.Del(i)
			}
		}
		partOf := func(key uint64) int { return int(key % uint64(parts)) }
		sub, subRes := r.Split(&b, parts, partOf)
		if len(sub) != parts || len(subRes) != parts {
			t.Fatalf("parts=%d: Split returned %d sub-batches, %d results", parts, len(sub), len(subRes))
		}
		total := 0
		for p := range sub {
			keys := sub[p].Keys()
			for j, k := range keys {
				if partOf(k) != p || (j > 0 && keys[j-1] >= k) {
					t.Fatalf("parts=%d: sub-batch %d out of route or order: %v", parts, p, keys)
				}
				if sub[p].Kinds()[j] == Put && sub[p].Vals()[j] != k*10 {
					t.Fatalf("parts=%d: sub-batch %d lost PUT value of key %d", parts, p, k)
				}
			}
			total += len(keys)
			// Stand-in for applying the part: echo each key as its value.
			subRes[p].Reset(len(keys))
			for j, k := range keys {
				subRes[p].Found[j], subRes[p].Vals[j] = k%2 == 0, k
			}
		}
		if total != b.Len() {
			t.Fatalf("parts=%d: sub-batches hold %d entries, batch %d", parts, total, b.Len())
		}
		r.Gather()
		for i, k := range b.Keys() {
			if r.Vals[i] != k || r.Found[i] != (k%2 == 0) {
				t.Fatalf("parts=%d: entry %d gathered (%v, %d), want (%v, %d)",
					parts, i, r.Found[i], r.Vals[i], k%2 == 0, k)
			}
		}
	}
}
