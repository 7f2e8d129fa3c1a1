package tokenizer

// builtinVocab assembles the compact default vocabulary: special tokens,
// single characters (so every ASCII word is always tokenizable), common
// English words, and frequent subword suffixes. Roughly BERT-flavoured,
// 423 entries — small enough to live in source, rich enough that typical
// English text tokenizes to sensible lengths.
func builtinVocab() []string {
	vocab := []string{PadToken, UnkToken, ClsToken, SepToken}
	// Single characters: letters, digits, common punctuation — both as
	// word-initial pieces and "##" continuations.
	chars := "abcdefghijklmnopqrstuvwxyz0123456789"
	for _, c := range chars {
		vocab = append(vocab, string(c), "##"+string(c))
	}
	for _, p := range []string{".", ",", "!", "?", "'", "\"", "-", ":", ";", "(", ")", "/", "@", "#", "&", "%", "$", "+", "=", "*", "_", "~", "<", ">", "[", "]", "{", "}", "|", "\\", "^", "`"} {
		vocab = append(vocab, p)
	}
	// Common English words, then frequent subword suffixes. None repeats an
	// entry above: NewFromVocab rejects a duplicate.
	vocab = append(vocab,
		"the", "of", "and", "to", "in", "is", "was", "he", "for",
		"it", "with", "as", "his", "on", "be", "at", "by", "this",
		"had", "not", "are", "but", "from", "or", "have", "an", "they",
		"which", "one", "you", "were", "her", "all", "she", "there",
		"would", "their", "we", "him", "been", "has", "when", "who",
		"will", "more", "no", "if", "out", "so", "said", "what", "up",
		"its", "about", "into", "than", "them", "can", "only", "other",
		"new", "some", "could", "time", "these", "two", "may", "then",
		"do", "first", "any", "my", "now", "such", "like", "our", "over",
		"man", "me", "even", "most", "made", "after", "also", "did",
		"many", "before", "must", "through", "back", "years", "where",
		"much", "your", "way", "well", "down", "should", "because",
		"each", "just", "those", "people", "how", "too", "little",
		"state", "good", "very", "make", "world", "still", "own", "see",
		"men", "work", "long", "get", "here", "between", "both", "life",
		"being", "under", "never", "day", "same", "another", "know",
		"while", "last", "might", "us", "great", "old", "year", "off",
		"come", "since", "against", "go", "came", "right", "used",
		"take", "three", "himself", "few", "house", "use", "during",
		"without", "again", "place", "american", "around", "however",
		"home", "small", "found", "mrs", "thought", "went", "say",
		"part", "once", "general", "high", "upon", "school", "every",
		"don", "does", "got", "united", "left", "number", "course",
		"war", "until", "always", "away", "something", "fact", "though",
		"water", "less", "public", "put", "think", "almost", "hand",
		"enough", "far", "took", "head", "yet", "government", "system",
		"better", "set", "told", "nothing", "night", "end", "why",
		"called", "didn", "eyes", "find", "going", "look", "asked",
		"later", "knew", "point", "next", "program", "city", "business",
		"give", "group", "toward", "young", "days", "let", "room",
		"word", "things", "want", "face", "second", "need", "model",
		"data", "news", "today", "love", "really", "happy", "twitter",
		"tweet", "post", "follow", "share", "best", "thanks",
		"lol", "omg", "haha", "yes", "morning", "check",
		"please", "watch", "video", "live", "game", "team", "win",
		"play", "song", "music", "free", "click", "link", "read",
		"story", "photo", "media", "social", "phone", "online",
	)
	return append(vocab,
		"##ed", "##ing", "##er", "##est", "##ly", "##tion",
		"##ment", "##ness", "##able", "##al", "##ic", "##ous", "##ive",
		"##ful", "##less", "##ity", "##es", "##en", "##an",
		"##on", "##in", "##at", "##or", "##ar", "##it", "##is", "##le",
		"##re", "##th", "##nd", "##st", "##nt", "##ch", "##sh", "##ck",
		"##ll", "##ss", "##ee", "##oo", "##ion", "##ers", "##ings",
	)
}
