package msg

import (
	"bytes"
	"testing"

	"lumiere/internal/crypto"
	"lumiere/internal/types"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindView, KindVC, KindEpochView, KindEC, KindTC,
		KindProposal, KindVote, KindQC, KindWish, KindTimeout,
		KindRequest, KindBlockFetch, KindBlockResp}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("unknown kind string")
	}
}

func TestMessageViews(t *testing.T) {
	cases := []struct {
		m    Message
		kind Kind
		view types.View
	}{
		{&ViewMsg{V: 3}, KindView, 3},
		{&VC{V: 4}, KindVC, 4},
		{&EpochViewMsg{V: 5}, KindEpochView, 5},
		{&EC{V: 6}, KindEC, 6},
		{&TC{V: 7}, KindTC, 7},
		{&QC{V: 8}, KindQC, 8},
		{&Proposal{V: 9}, KindProposal, 9},
		{&Vote{V: 10}, KindVote, 10},
		{&Wish{V: 12}, KindWish, 12},
		{&Timeout{V: 13}, KindTimeout, 13},
		{&Request{ID: 1}, KindRequest, 0},
		{&BlockFetch{}, KindBlockFetch, 0},
		{&BlockResp{Cert: &QC{V: 14}}, KindBlockResp, 14},
		{&BlockResp{}, KindBlockResp, 0},
	}
	for _, c := range cases {
		if c.m.Kind() != c.kind || c.m.View() != c.view {
			t.Errorf("%T: kind=%v view=%v", c.m, c.m.Kind(), c.m.View())
		}
	}
}

func TestStatementDomainsDisjoint(t *testing.T) {
	v := types.View(5)
	var h [32]byte
	stmts := [][]byte{
		ViewStatement(v),
		EpochViewStatement(v),
		WishStatement(v),
		TimeoutStatement(v),
		VoteStatement(v, h),
	}
	for i := range stmts {
		for j := i + 1; j < len(stmts); j++ {
			if bytes.Equal(stmts[i], stmts[j]) {
				t.Fatalf("statements %d and %d collide", i, j)
			}
		}
	}
}

func TestFromAccessors(t *testing.T) {
	sig := crypto.Signature{Signer: 7}
	if (&ViewMsg{Sig: sig}).From() != 7 {
		t.Fatal("ViewMsg.From")
	}
	if (&EpochViewMsg{Sig: sig}).From() != 7 {
		t.Fatal("EpochViewMsg.From")
	}
	if (&Vote{Sig: sig}).From() != 7 {
		t.Fatal("Vote.From")
	}
	if (&Wish{Sig: sig}).From() != 7 {
		t.Fatal("Wish.From")
	}
	if (&Timeout{Sig: sig}).From() != 7 {
		t.Fatal("Timeout.From")
	}
	if (&BlockFetch{FromRaw: 7}).From() != 7 {
		t.Fatal("BlockFetch.From")
	}
	if (&BlockResp{FromRaw: 7}).From() != 7 {
		t.Fatal("BlockResp.From")
	}
}

func TestKappaSizeConstantPerKind(t *testing.T) {
	// §2: every message is O(κ) — a certificate is one threshold
	// signature however many signers it aggregates, so its size in
	// κ-bit words does not grow with n.
	signers := make([]types.NodeID, 1024)
	for i := range signers {
		signers[i] = types.NodeID(i)
	}
	agg := crypto.Aggregate{Signers: signers, Bytes: make([][]byte, len(signers))}
	for _, tc := range []struct{ empty, full Message }{
		{&VC{}, &VC{Agg: agg}}, {&EC{}, &EC{Agg: agg}}, {&TC{}, &TC{Agg: agg}},
		{&QC{}, &QC{Agg: agg}},
		{&Proposal{Justify: &QC{}}, &Proposal{Justify: &QC{Agg: agg}}},
		{&BlockResp{Cert: &QC{}}, &BlockResp{Cert: &QC{Agg: agg}}},
	} {
		if e, f := Words(tc.empty), Words(tc.full); e != f {
			t.Errorf("%T: %d words with 1024 signers, %d with none", tc.full, f, e)
		}
	}
}

func TestWordsModel(t *testing.T) {
	// Words is the documented per-kind model: small constants (§2: every
	// message is O(κ)), sensitive only to which certificates a message
	// actually carries.
	for _, tc := range []struct {
		m    Message
		want int
	}{
		{&ViewMsg{}, 2}, {&EpochViewMsg{}, 2}, {&Wish{}, 2}, {&Timeout{}, 2},
		{&VC{}, 2}, {&EC{}, 2}, {&TC{}, 2},
		{&Vote{}, 3}, {&QC{}, 3},
		{&Proposal{}, 2}, {&Proposal{Justify: &QC{}}, 5},
		{&Request{}, 2},
		{&BlockFetch{}, 2}, {&BlockResp{Cert: &QC{}}, 4},
	} {
		if got := Words(tc.m); got != tc.want {
			t.Errorf("Words(%T) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

func TestWordsChargePayloadBytes(t *testing.T) {
	// Data-plane bytes are charged at ⌈bytes/wordBytes⌉ on top of the
	// per-kind constant; view-synchronization kinds never carry payload
	// so the Table 1 accounting is untouched.
	for _, tc := range []struct {
		n, want int
	}{
		{0, 0}, {1, 1}, {31, 1}, {32, 1}, {33, 2}, {64, 2}, {1000, 32},
	} {
		if got := PayloadWords(tc.n); got != tc.want {
			t.Errorf("PayloadWords(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	p := &Proposal{Justify: &QC{}, Block: make([]byte, 100)}
	if got := Words(p); got != 5+4 {
		t.Errorf("Proposal with 100B payload = %d words, want 9", got)
	}
	r := &Request{Payload: make([]byte, 40)}
	if got := Words(r); got != 2+2 {
		t.Errorf("Request with 40B payload = %d words, want 4", got)
	}
}
