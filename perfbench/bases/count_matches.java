static int countMatches(char[] text, int n, char value) {
    int result = 0;
    int mask = 0xFF;
    for (int i = 0; i < n; i = i + 1) {
        if ((text[i] & mask) == value) {
            result = result + 1;
        }
    }
    return result;
}
