let block_size = 64

type key = { inner : Sha256.state; outer : Sha256.state }

let key secret =
  let secret = if String.length secret > block_size then Sha256.digest secret else secret in
  let padded byte =
    String.init block_size (fun i ->
        let secret_byte = if i < String.length secret then Char.code secret.[i] else 0 in
        Char.chr (byte lxor secret_byte))
  in
  { inner = Sha256.midstate (padded 0x36); outer = Sha256.midstate (padded 0x5C) }

let mac key pieces =
  let inner = Sha256.start key.inner in
  List.iter (Sha256.feed inner) pieces;
  let outer = Sha256.start key.outer in
  Sha256.feed outer (Sha256.finish inner);
  Sha256.finish outer
