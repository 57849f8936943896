let digits = "0123456789abcdef"

let encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let byte = Char.code c in
      Bytes.set out (2 * i) digits.[byte lsr 4];
      Bytes.set out ((2 * i) + 1) digits.[byte land 0xF])
    s;
  Bytes.to_string out
