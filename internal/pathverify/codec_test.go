package pathverify

import (
	"math"
	"testing"

	"distwalk/internal/congest"
)

// An interval message reads back exactly what flush packed, at the
// fields' extremes, under its historical kind and size.
func TestCodecIvMsg(t *testing.T) {
	if kindIvMsg != 1 || ivMsgWords != 3 {
		t.Fatalf("ivMsg: kind %d, %d words; want kind 1, 3 words", kindIvMsg, ivMsgWords)
	}
	for _, x := range []ivMsg{
		{lo: 1, hi: math.MaxInt32, senderOrder: math.MaxInt32},
		{lo: 0, hi: 0, senderOrder: 0},
		{lo: math.MinInt32, hi: -1, senderOrder: math.MinInt32},
	} {
		w0, w1 := x.encode()
		m := congest.MakeMessage(0, 1, kindIvMsg, ivMsgWords, [congest.PayloadWords]uint64{w0, w1})
		if got := readIvMsg(&m); got != x {
			t.Fatalf("ivMsg %+v read back as %+v", x, got)
		}
	}
}
