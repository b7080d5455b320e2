(* Damage a stored entry the way a bad disk sector would. *)

(* Flip the lowest mantissa bit of the float [x] stored in [file]:
   Marshal writes a boxed float as a 0x0C tag and 8 little-endian bytes. *)
let float_bit file x =
  let tag = Bytes.make 9 '\x0c' in
  Bytes.set_int64_le tag 1 (Int64.bits_of_float x);
  let needle = Bytes.to_string tag in
  let s = Bytes.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let rec find i = if Bytes.sub_string s i 9 = needle then i + 1 else find (i + 1) in
  let i = find 0 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc s)
