package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"arlo/internal/wire"
)

// asTokens is text as a client would pre-encode it.
func asTokens(srv *Server, text string) wire.Request {
	ids := srv.tok.Encode(text, srv.maxLen)
	toks := make([]uint32, len(ids))
	for i, id := range ids {
		toks[i] = uint32(id)
	}
	return wire.Request{Mode: wire.ModeTokens, Tokens: toks}
}

// TestTextAndTokensAgree: the server folds a text's ids out of a lent
// buffer and a token request's out of the frame; the same input must get
// the same sequence length and label either way, truncation included.
func TestTextAndTokensAgree(t *testing.T) {
	srv := allocServer(t)
	for _, text := range []string{
		"x",
		"the data team won the game today",
		"Polymorph runtimes: dispatch, demotion & congestion — naïve café!",
		strings.Repeat("serving latency, ", 400), // far beyond maxLen tokens
	} {
		byText, _ := srv.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: text})
		byTokens, _ := srv.Do(context.Background(), asTokens(srv, text))
		if byText.Status != wire.StatusOK || byTokens.Status != wire.StatusOK {
			t.Fatalf("%.20q: status %v (text), %v (tokens)", text, byText.Status, byTokens.Status)
		}
		if byText.SeqLen != byTokens.SeqLen || byText.Label != byTokens.Label {
			t.Errorf("%.20q: text got (%d, %d), tokens got (%d, %d)", text,
				byText.SeqLen, byText.Label, byTokens.SeqLen, byTokens.Label)
		}
		if int(byText.SeqLen) > srv.maxLen {
			t.Errorf("%.20q: sequence length %d exceeds the model maximum %d", text, byText.SeqLen, srv.maxLen)
		}
	}
}

// TestConcurrentTextsKeepTheirOwnIDs: 64 goroutines send distinct texts at
// once and each must get the sequence length and label a serial run gave —
// an id buffer that leaks between requests fails this, and -race sees the
// sharing itself.
func TestConcurrentTextsKeepTheirOwnIDs(t *testing.T) {
	srv := allocServer(t)
	const n = 64
	texts := make([]string, n)
	want := make([]wire.Response, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("request %d: %s", i, strings.Repeat("polymorph data ", 1+i))
		want[i], _ = srv.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: texts[i]})
	}
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, _ := srv.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: texts[i]})
				if got.Status != wire.StatusOK || got.SeqLen != want[i].SeqLen || got.Label != want[i].Label {
					t.Errorf("text %d round %d: got (%v, %d, %d), serial run gave (%d, %d)", i, round,
						got.Status, got.SeqLen, got.Label, want[i].SeqLen, want[i].Label)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	distinct := map[uint32]bool{}
	for _, w := range want {
		distinct[w.SeqLen] = true
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct lengths among %d texts: the test cannot see a leak", len(distinct), n)
	}
}
