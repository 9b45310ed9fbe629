package main

import (
	"fmt"
	"math/rand"
	"strings"

	"acd/internal/dataset"
)

// streamRecord is one generated record: its single text field and the
// ground-truth entity the simulated crowd answers from.
type streamRecord struct {
	Text   string
	Entity int
}

// entityLabel is the wire form of a record's ground-truth entity.
func entityLabel(e int) string { return fmt.Sprintf("e%d", e) }

// genStream builds n distinct records in arrival order from seed.
//
// The records come from dataset.Synthetic with one entity per ten
// records and a shared vocabulary of n/2 words, which holds candidate
// density near constant as n grows (the default 50-word vocabulary
// makes it climb with n). Entities arrive in a seeded random order,
// each entity's records close together (a seeded shuffle inside
// windows of shuffleWindow records), so a record's earlier duplicates
// are already stored when it arrives and the candidates each new
// record brings stay flat across the stream. The generator leaves some
// duplicates textually identical to their original; those get one
// extra typo, so no record in the stream repeats another.
func genStream(n int, seed int64) ([]streamRecord, error) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		Entities:         max(n/10, 1),
		Records:          n,
		SharedVocabulary: max(n/2, 1),
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	byEntity := make([][]streamRecord, d.NumEntities)
	seen := make(map[string]bool, n)
	for _, r := range d.Records {
		text := r.Fields["text"]
		for seen[text] {
			toks := strings.Fields(text)
			i := rng.Intn(len(toks))
			toks[i] += string(rune('a' + rng.Intn(26)))
			text = strings.Join(toks, " ")
		}
		seen[text] = true
		byEntity[r.Entity] = append(byEntity[r.Entity], streamRecord{Text: text, Entity: r.Entity})
	}
	out := make([]streamRecord, 0, n)
	for _, e := range rng.Perm(len(byEntity)) {
		out = append(out, byEntity[e]...)
	}
	for lo := 0; lo < len(out); lo += shuffleWindow {
		w := out[lo:min(lo+shuffleWindow, len(out))]
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	return out, nil
}

// shuffleWindow bounds how far apart an entity's records arrive.
const shuffleWindow = 64
