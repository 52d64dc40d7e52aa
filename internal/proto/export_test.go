package proto

// Hooks into the rows-frame codec for the external test package.
var (
	AppendRowsFrame   = appendRowsFrame
	DecodeRowsFrame   = decodeRowsFrame
	DecodeFrameStrict = decodeFrameStrict
)
