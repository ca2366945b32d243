type key = { k0 : int64; k1 : int64 }

let key_of_ints k0 k1 = { k0; k1 }

let key_of_string s =
  let padded = Bytes.make 16 '\000' in
  Bytes.blit_string s 0 padded 0 (min 16 (String.length s));
  { k0 = Bytes.get_int64_le padded 0; k1 = Bytes.get_int64_le padded 8 }

let[@inline] rotl x b =
  Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* SipHash-2-4 a word at a time. The state lives in four local refs that
   never escape, and the one copy of the SipRound is written out in place
   rather than called, so the native compiler keeps every int64 unboxed:
   a hash allocates only its boxed result. Passes 0 .. [nwords - 1] absorb
   the message words (2 rounds each); the last of them is the final
   [len land 7] bytes with the length in the top byte. Pass [nwords]
   finalises: it flips v2 and runs 4 rounds, and its m is 0, so the xors
   with m do nothing. *)
let hash key msg =
  let v0 = ref (Int64.logxor key.k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor key.k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor key.k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor key.k1 0x7465646279746573L) in
  let len = String.length msg in
  let nwords = (len lsr 3) + 1 in
  for w = 0 to nwords do
    let m =
      if w < nwords - 1 then String.get_int64_le msg (w lsl 3)
      else if w = nwords - 1 then begin
        let m = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
        for i = 0 to (len land 7) - 1 do
          m :=
            Int64.logor !m
              (Int64.shift_left
                 (Int64.of_int (Char.code (String.unsafe_get msg ((w lsl 3) + i))))
                 (8 * i))
        done;
        !m
      end
      else begin
        v2 := Int64.logxor !v2 0xffL;
        0L
      end
    in
    v3 := Int64.logxor !v3 m;
    for _ = 1 to if w < nwords then 2 else 4 do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logxor (rotl !v1 13) !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logxor (rotl !v3 16) !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logxor (rotl !v3 21) !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logxor (rotl !v1 17) !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash_bytes key b = hash key (Bytes.unsafe_to_string b)

(* Reference vectors: SipHash-2-4 of the message 00 01 02 ... (i-1) bytes
   under key 000102030405060708090a0b0c0d0e0f (Appendix A of the paper).
   We check a few representative lengths. *)
let self_test () =
  let key =
    key_of_string
      "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"
  in
  let msg n = String.init n (fun i -> Char.chr i) in
  let expect =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (8, 0x93f5f5799a932462L);
      (15, 0xa129ca6149be45e5L);
      (63, 0x958a324ceb064572L);
    ]
  in
  List.for_all (fun (n, want) -> hash key (msg n) = want) expect
