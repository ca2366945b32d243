(* Tests for the SipHash PRF and the node-authentication layer. *)

open Strovl_crypto

let check_bool = Alcotest.(check bool)

let siphash_reference_vectors () =
  check_bool "SipHash-2-4 reference vectors" true (Siphash.self_test ())

let siphash_key_sensitivity () =
  let k1 = Siphash.key_of_string "key-one" in
  let k2 = Siphash.key_of_string "key-two" in
  check_bool "different keys differ" true
    (Siphash.hash k1 "message" <> Siphash.hash k2 "message");
  check_bool "different messages differ" true
    (Siphash.hash k1 "message-a" <> Siphash.hash k1 "message-b");
  Alcotest.(check int64) "deterministic" (Siphash.hash k1 "m") (Siphash.hash k1 "m")

let siphash_key_padding () =
  (* Keys shorter than 16 bytes are zero padded; a 16-byte prefix match with
     different tails must produce different keys. *)
  let k_short = Siphash.key_of_string "abc" in
  let k_short' = Siphash.key_of_string "abc\000\000" in
  Alcotest.(check int64) "zero padding canonical"
    (Siphash.hash k_short "x") (Siphash.hash k_short' "x");
  let k_long1 = Siphash.key_of_string "0123456789abcdefXXX" in
  let k_long2 = Siphash.key_of_string "0123456789abcdefYYY" in
  Alcotest.(check int64) "only first 16 bytes used"
    (Siphash.hash k_long1 "x") (Siphash.hash k_long2 "x")

let siphash_bytes_variant () =
  let k = Siphash.key_of_string "k" in
  Alcotest.(check int64) "hash_bytes = hash"
    (Siphash.hash k "hello") (Siphash.hash_bytes k (Bytes.of_string "hello"))

let qcheck_siphash_distributes =
  QCheck.Test.make ~name:"distinct messages rarely collide" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      let k = Siphash.key_of_string "collision-test" in
      a = b || Siphash.hash k a <> Siphash.hash k b)

(* The byte-at-a-time SipHash-2-4 the library used before it loaded whole
   words: a record of mutable int64 state and one byte per load. Kept here
   only as the model the word-at-a-time code must agree with. *)
module Model = struct
  let le64 s off len =
    let v = ref 0L in
    for i = len - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !v

  let rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

  type state = { mutable v0 : int64; mutable v1 : int64; mutable v2 : int64; mutable v3 : int64 }

  let sipround s =
    s.v0 <- Int64.add s.v0 s.v1;
    s.v1 <- rotl s.v1 13;
    s.v1 <- Int64.logxor s.v1 s.v0;
    s.v0 <- rotl s.v0 32;
    s.v2 <- Int64.add s.v2 s.v3;
    s.v3 <- rotl s.v3 16;
    s.v3 <- Int64.logxor s.v3 s.v2;
    s.v0 <- Int64.add s.v0 s.v3;
    s.v3 <- rotl s.v3 21;
    s.v3 <- Int64.logxor s.v3 s.v0;
    s.v2 <- Int64.add s.v2 s.v1;
    s.v1 <- rotl s.v1 17;
    s.v1 <- Int64.logxor s.v1 s.v2;
    s.v2 <- rotl s.v2 32

  let hash (key : Siphash.key) msg =
    let s =
      {
        v0 = Int64.logxor key.k0 0x736f6d6570736575L;
        v1 = Int64.logxor key.k1 0x646f72616e646f6dL;
        v2 = Int64.logxor key.k0 0x6c7967656e657261L;
        v3 = Int64.logxor key.k1 0x7465646279746573L;
      }
    in
    let len = String.length msg in
    let nblocks = len / 8 in
    for i = 0 to nblocks - 1 do
      let m = le64 msg (i * 8) 8 in
      s.v3 <- Int64.logxor s.v3 m;
      sipround s;
      sipround s;
      s.v0 <- Int64.logxor s.v0 m
    done;
    let rem = len - (nblocks * 8) in
    let m =
      Int64.logor (le64 msg (nblocks * 8) rem)
        (Int64.shift_left (Int64.of_int (len land 0xff)) 56)
    in
    s.v3 <- Int64.logxor s.v3 m;
    sipround s;
    sipround s;
    s.v0 <- Int64.logxor s.v0 m;
    s.v2 <- Int64.logxor s.v2 0xffL;
    sipround s;
    sipround s;
    sipround s;
    sipround s;
    Int64.logxor (Int64.logxor s.v0 s.v1) (Int64.logxor s.v2 s.v3)
end

let qcheck_siphash_matches_model =
  QCheck.Test.make ~name:"word-at-a-time matches the byte model" ~count:1000
    QCheck.(
      triple int64 int64 (string_gen_of_size Gen.(0 -- 200) Gen.char))
    (fun (k0, k1, msg) ->
      let key = Siphash.key_of_ints k0 k1 in
      Siphash.hash key msg = Model.hash key msg
      && Siphash.hash_bytes key (Bytes.of_string msg) = Model.hash key msg)

(* Minor words per hash do not grow with the message: the state stays
   unboxed and only the int64 result is boxed (3 words; the byte model
   took 842 at 48 B and 15,536 at 1,316 B). *)
let siphash_words_per_hash () =
  let key = Siphash.key_of_string "words" in
  let words n =
    let msg = String.make n 'x' in
    ignore (Siphash.hash key msg);
    let calls = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Siphash.hash key msg))
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let short = words 48 and long = words 1316 in
  if short <> 3. || long <> 3. then
    Alcotest.failf "siphash: %.1f words at 48 B, %.1f at 1316 B (want 3 each)"
      short long

let auth_mac_roundtrip () =
  let r = Auth.create_registry ~master:"secret" ~nodes:5 in
  let tag = Auth.mac r ~src:1 ~dst:2 "hello" in
  check_bool "verify ok" true (Auth.verify_mac r ~src:1 ~dst:2 "hello" tag);
  check_bool "wrong msg" false (Auth.verify_mac r ~src:1 ~dst:2 "hellO" tag);
  check_bool "wrong pair" false (Auth.verify_mac r ~src:2 ~dst:1 "hello" tag)

let auth_sign_roundtrip () =
  let r = Auth.create_registry ~master:"secret" ~nodes:5 in
  let tag = Auth.sign r ~node:3 "lsu" in
  check_bool "verify ok" true (Auth.verify_sign r ~node:3 "lsu" tag);
  check_bool "wrong origin" false (Auth.verify_sign r ~node:4 "lsu" tag);
  check_bool "tampered" false (Auth.verify_sign r ~node:3 "lsu!" tag)

let auth_registry_independence () =
  let r1 = Auth.create_registry ~master:"alpha" ~nodes:3 in
  let r2 = Auth.create_registry ~master:"beta" ~nodes:3 in
  let tag = Auth.sign r1 ~node:0 "m" in
  check_bool "different master fails" false (Auth.verify_sign r2 ~node:0 "m" tag)

let auth_bounds () =
  let r = Auth.create_registry ~master:"m" ~nodes:2 in
  Alcotest.check_raises "node range" (Invalid_argument "Auth: node out of range")
    (fun () -> ignore (Auth.sign r ~node:2 "x"))

let auth_costs_ordered () =
  check_bool "mac cheapest" true (Auth.mac_cost < Auth.verify_sign_cost);
  check_bool "sign most expensive" true (Auth.verify_sign_cost < Auth.sign_cost)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "strovl_crypto"
    [
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick siphash_reference_vectors;
          Alcotest.test_case "key sensitivity" `Quick siphash_key_sensitivity;
          Alcotest.test_case "key padding" `Quick siphash_key_padding;
          Alcotest.test_case "bytes variant" `Quick siphash_bytes_variant;
          q qcheck_siphash_distributes;
          q qcheck_siphash_matches_model;
          Alcotest.test_case "words per hash" `Quick siphash_words_per_hash;
        ] );
      ( "auth",
        [
          Alcotest.test_case "mac roundtrip" `Quick auth_mac_roundtrip;
          Alcotest.test_case "sign roundtrip" `Quick auth_sign_roundtrip;
          Alcotest.test_case "registry independence" `Quick auth_registry_independence;
          Alcotest.test_case "bounds" `Quick auth_bounds;
          Alcotest.test_case "cost model ordered" `Quick auth_costs_ordered;
        ] );
    ]
