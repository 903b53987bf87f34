"""
The disk cache's record reader against a JSON decoder.

`center._load_level` matches the record byte for byte. The oracle below is
the reader it replaced: it parses the file as JSON, then compares the text
with the record of the level it found. Both must accept the same files.
"""

import json

import pytest

from grhecke import center


def _json_record(n, level):
    return json.dumps({"format": 2, "n": n, "up_to": level})


def _json_load_level(path, n):
    """The level a JSON decoder reads from `path`, under the writer's record; else -1."""
    try:
        text = path.read_text()
        level = json.loads(text)["up_to"]
    except (OSError, ValueError, KeyError, TypeError,
            RecursionError):  # the decoder's answer to deeply nested input
        return -1
    if type(level) is not int or level < 0 or text.removesuffix("\n") != _json_record(n, level):
        return -1
    return level


RECORD = '{"format": 2, "n": 5, "up_to": 4}'


def _up_to(value):
    return RECORD.replace('"up_to": 4', f'"up_to": {value}').encode()


# (bytes of the file, None for a directory; the level both readers must return)
FILES = {
    "record": (RECORD.encode() + b"\n", 4),
    "record-without-newline": (RECORD.encode(), 4),
    "level-0": (_up_to(0), 0),
    "level-large": (_up_to(10**30), 10**30),
    "two-newlines": (RECORD.encode() + b"\n\n", -1),
    "crlf": (RECORD.encode() + b"\r\n", 4),
    "up_to-string": (_up_to('"4"'), -1),
    "up_to-true": (_up_to("true"), -1),
    "up_to-float": (_up_to("4.0"), -1),
    "up_to-negative": (_up_to(-1), -1),
    "up_to-minus-zero": (_up_to("-0"), -1),
    "up_to-leading-zero": (_up_to("04"), -1),
    "up_to-exponent": (_up_to("1e1"), -1),
    "up_to-plus": (_up_to("+4"), -1),
    "up_to-underscore": (_up_to("1_0"), -1),
    "up_to-arabic-digit": (_up_to("٤"), -1),
    "up_to-superscript": (_up_to("²"), -1),
    "up_to-null": (_up_to("null"), -1),
    "extra-space": (RECORD.replace(": 4", ":  4").encode(), -1),
    "space-before-brace": (RECORD.replace("4}", "4 }").encode(), -1),
    "leading-space": (b" " + RECORD.encode(), -1),
    "missing-space": (RECORD.replace(", ", ",").encode(), -1),
    "no-space-before-level": (RECORD.replace(": 4", ":4").encode(), -1),
    "trailing-bytes": (RECORD.encode() + b"[]", -1),
    "trailing-space": (RECORD.encode() + b" \n", -1),
    "wrong-n": (RECORD.replace('"n": 5', '"n": 4').encode(), -1),
    "format-1": (json.dumps({"format": 1, "n": 5, "up_to": 4, "gamma": []}).encode(), -1),
    "format-1-header": (RECORD.replace('"format": 2', '"format": 1').encode(), -1),
    "reordered-keys": (json.dumps({"n": 5, "up_to": 4, "format": 2}).encode(), -1),
    "truncated": (RECORD[:-1].encode(), -1),
    "non-utf8": (RECORD.encode().replace(b"4}", b"\xff}"), -1),
    "non-utf8-after-record": (RECORD.encode() + b"\xff", -1),
    "deeply-nested": (_up_to("[" * 100_000), -1),
    "empty": (b"", -1),
    "newline-only": (b"\n", -1),
    "directory": (None, -1),
}


@pytest.mark.parametrize("name", list(FILES))
def test_record_reader_agrees_with_json_reader(tmp_path, name):
    content, level = FILES[name]
    path = tmp_path / "gamma_n5_basis.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert _json_load_level(path, 5) == level
    assert center._load_level(path, 5) == level

