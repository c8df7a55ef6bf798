"""At-rest encryption for finished output partitions — the batch
analogue of the reference's encrypted badger store
(utils/db/encrypted.go: the store encrypts values under a session key
wrapped by a master secret).

Uses Parquet Modular Encryption (real AES-GCM at the column-chunk and
footer level, done by the parquet layer itself): every data page and
the footer are ciphertext on disk, and a read WITHOUT the keys fails at
open. Data keys are random per file (parquet's own generation); this
module supplies the KMS that WRAPS those data keys under a master
secret — a LOCAL keyring stand-in for a real KMS (no external key
service exists in this environment; the wrap is a SHA-256 keystream XOR
with a random nonce, authenticated by HMAC — adequate for key
wrapping under a secret, and clearly marked as the place a production
deployment plugs its KMS).

Shape: a per-file rewrite (read plain → write encrypted with the sink
output's own write options → atomic rename) over the data dirs of the
run and of every retry attempt, resumable since encrypted files are
detected by footer magic and skipped. It runs last: retry and
compaction read plain Parquet and refuse an encrypted file.
"""

from __future__ import annotations

import base64
import datetime
import glob
import hashlib
import hmac
import os
import secrets as _secrets

import pyarrow.parquet as pq
import pyarrow.parquet.encryption as pe

from .manifest import SINK_PARQUET_OPTIONS

_CACHE_TD = datetime.timedelta(minutes=10)


def _keystream(secret: bytes, label: bytes, n: int) -> bytes:
    out = b""
    ctr = 0
    while len(out) < n:
        out += hashlib.sha256(secret + b"|" + label + b"|"
                              + ctr.to_bytes(4, "big")).digest()
        ctr += 1
    return out[:n]


class LocalKeyring(pe.KmsClient):
    """KmsClient wrapping parquet data keys under a master secret."""

    def __init__(self, secret: bytes):
        super().__init__()
        self.secret = secret

    def wrap_key(self, key: bytes, master_id: str) -> bytes:
        nonce = _secrets.token_bytes(16)
        body = bytes(a ^ b for a, b in zip(
            key, _keystream(self.secret, master_id.encode() + nonce,
                            len(key))))
        mac = hmac.new(self.secret, nonce + body,
                       hashlib.sha256).digest()[:16]
        # parquet stores key metadata as UTF-8 → base64 the blob
        return base64.b64encode(nonce + mac + body)

    def unwrap_key(self, wrapped: bytes, master_id: str) -> bytes:
        wrapped = base64.b64decode(wrapped)
        nonce, mac, body = wrapped[:16], wrapped[16:32], wrapped[32:]
        want = hmac.new(self.secret, nonce + body,
                        hashlib.sha256).digest()[:16]
        if not hmac.compare_digest(mac, want):
            raise ValueError("key unwrap failed: wrong master "
                             "secret or corrupt key material")
        return bytes(a ^ b for a, b in zip(
            body, _keystream(self.secret, master_id.encode() + nonce,
                             len(body))))


def _factory(secret: bytes):
    return pe.CryptoFactory(lambda cfg: LocalKeyring(secret))


def encryption_properties(secret: bytes, columns: list[str]):
    f = _factory(secret)
    cfg = pe.EncryptionConfiguration(
        footer_key="skewer-footer",
        # every column under one data key (the encrypted-store model:
        # everything ciphertext; this pyarrow build has no
        # uniform_encryption flag, so the file's columns are listed)
        column_keys={"skewer-data": list(columns)},
        encryption_algorithm="AES_GCM_V1",
        cache_lifetime=_CACHE_TD, data_key_length_bits=128)
    return f.file_encryption_properties(pe.KmsConnectionConfig(), cfg)


def decryption_properties(secret: bytes):
    f = _factory(secret)
    return f.file_decryption_properties(
        pe.KmsConnectionConfig(),
        pe.DecryptionConfiguration(cache_lifetime=_CACHE_TD))


def is_encrypted(path: str) -> bool:
    """Encrypted-footer parquet ends with the 'PARE' magic."""
    with open(path, "rb") as fh:
        fh.seek(-4, os.SEEK_END)
        return fh.read(4) == b"PARE"


def refuse_encrypted(path: str) -> None:
    """Raise ValueError if ``path`` is encrypted: retry and compaction
    read plain Parquet, so they run before :func:`encrypt_output`."""
    if is_encrypted(path):
        raise ValueError(f"{path} is encrypted: retry or compact an out "
                         "dir before encrypting it")


def read_encrypted(path: str, secret: bytes):
    return pq.ParquetFile(
        path, decryption_properties=decryption_properties(secret)).read()


def encrypt_output(out_dir: str, secret: bytes) -> dict:
    """Encrypt every plain parquet file under ``out_dir``/data and each
    retry attempt's ``retries/<nnn>/data`` in place (write-encrypted
    with the sink output's write options + atomic rename). Idempotent:
    already-encrypted files are skipped, so a killed run resumes.
    Returns {"encrypted": n, "skipped": n}."""
    n_enc = n_skip = 0
    for data_dir in [os.path.join(out_dir, "data")] + sorted(
            glob.glob(os.path.join(out_dir, "retries", "*", "data"))):
        for root, _dirs, files in os.walk(data_dir):
            for f in sorted(files):
                if not f.endswith(".parquet"):
                    continue
                p = os.path.join(root, f)
                if is_encrypted(p):
                    n_skip += 1
                    continue
                t = pq.read_table(p)
                tmp = p + ".enc.tmp"
                pq.write_table(t, tmp, **SINK_PARQUET_OPTIONS,
                               encryption_properties=encryption_properties(
                                   secret, t.column_names))
                os.replace(tmp, p)
                n_enc += 1
    return {"encrypted": n_enc, "skipped": n_skip}
